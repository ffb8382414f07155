"""The released-NIC arbiter against the full-rescan reference arbiter.

:class:`repro.net.network.Network` scans only the waiting transfers that
touch a NIC released since the last scan.  A seeded random interleaving
of sends and posts (mixed priorities, hosts with ``nic_capacity`` 1 and
2), completions through ``_finish_transfer``, abandonments through the
fault path's retry budget, and actor moves runs in lockstep on the
production network and on
:class:`~tests.net.reference_arbiter.ReferenceArbiterNetwork`.
Completions forward messages to moved actors, and a transfer observer
sometimes sends from an unrelated host, so new transfers also arrive
while released capacity awaits its scan.  Both networks have
``_start_transfer`` replaced by a recorder, so the test itself decides
when each admitted transfer completes.  After every step both must have
started the same transfers in the same order and hold the same waiting
queue.
"""

import random
from itertools import combinations
from types import SimpleNamespace

import pytest

from repro.net.host import Host
from repro.net.link import Link
from repro.net.message import Message, MessageKind
from repro.net.network import Network, TransferObservation
from repro.sim import Environment
from repro.traces import constant_trace
from tests.net.reference_arbiter import ReferenceArbiterNetwork

HOSTS = ("h0", "h1", "h2", "h3", "h4")
ACTORS = tuple(f"@{host}" for host in HOSTS)
KINDS = tuple(MessageKind)

#: A fault injector whose every attempt finds the link down, with a
#: one-attempt budget: ``_faulty_attempts`` abandons at its first step.
ABANDONING_FAULTS = SimpleNamespace(
    retry=SimpleNamespace(max_attempts=1, backoff_delay=lambda attempt: 0.0),
    link_blocked=lambda src, dst, now: "down",
)


def _send_op(rng: random.Random, n: int) -> tuple:
    src, dst = rng.sample(HOSTS, 2)
    actor = f"@{dst}" if rng.random() < 0.7 else rng.choice(ACTORS)
    kind = rng.choice(KINDS)
    priority = rng.choice((None, None, 0, 1, 2, 3, 4))
    via = rng.choice(("send", "post"))
    return ("send", n, src, dst, actor, kind, priority, via)


def _script(seed: int, steps: int = 400) -> tuple[list[int], list[tuple]]:
    rng = random.Random(seed)
    caps = [1, 2] + [rng.choice((1, 2)) for _ in HOSTS[2:]]
    rng.shuffle(caps)
    ops: list[tuple] = []
    for n in range(steps):
        roll = rng.random()
        if roll < 0.45:
            ops.append(_send_op(rng, n))
        elif roll < 0.8:
            # The send an observer of this completion makes, if any.
            echo = _send_op(rng, steps + n) if rng.random() < 0.3 else None
            ops.append(("complete", rng.random(), echo))
        elif roll < 0.88:
            ops.append(("abandon", rng.random()))
        else:
            ops.append(("move", rng.choice(ACTORS), rng.choice(HOSTS)))
    return caps, ops


class _Harness:
    """One network plus the transfers its arbiter has admitted."""

    def __init__(self, network_class, caps):
        self.env = Environment()
        self.net = network_class(self.env)
        for host, cap in zip(HOSTS, caps):
            self.net.add_host(Host(self.env, host, nic_capacity=cap))
        for a, b in combinations(HOSTS, 2):
            self.net.add_link(Link(a, b, constant_trace(1e4), startup_cost=0.0))
        for host, actor in zip(HOSTS, ACTORS):
            self.net.register_actor(actor, host)
        self.started: list[int] = []
        self.active: list[tuple] = []
        self.net._start_transfer = self._record
        self.echo = None
        self.net.observers.append(self._observe)

    def _record(self, message, src, dst, done) -> None:
        self.started.append(message.payload["n"])
        self.active.append((message, src, dst, done))

    def _observe(self, observation) -> None:
        if self.echo is not None:
            echo, self.echo = self.echo, None
            self.play(echo)

    def play(self, op) -> None:
        net = self.net
        if op[0] == "send":
            __, n, src, dst, actor, kind, priority, via = op
            message = Message(
                kind, f"@{src}", actor, 100.0, payload={"n": n}, priority=priority
            )
            getattr(net, via)(message, src_host=src, dst_host=dst)
        elif op[0] == "move":
            net.move_actor(op[1], op[2])
        elif self.active:
            message, src, dst, done = self.active.pop(int(op[1] * len(self.active)))
            link = net.link(src, dst)
            if op[0] == "complete":
                self.echo = op[2]
                net._finish_transfer(message, src, dst, done, link, 0.0, 1.0, True)
            else:
                net._faults = ABANDONING_FAULTS
                with pytest.raises(StopIteration):
                    next(net._faulty_attempts(message, link, src, dst, done))
                net._faults = None

    def waiting(self) -> list[int]:
        return [entry[2].payload["n"] for entry in sorted(self.net._waiting)]


@pytest.mark.parametrize("seed", range(12))
def test_start_order_and_queue_match_reference(seed):
    caps, ops = _script(seed)
    fast = _Harness(Network, caps)
    reference = _Harness(ReferenceArbiterNetwork, caps)
    deepest = 0
    for step, op in enumerate(ops):
        fast.play(op)
        reference.play(op)
        assert fast.started == reference.started, (seed, step, op)
        assert fast.waiting() == reference.waiting(), (seed, step, op)
        # The production queue is kept sorted in place.
        assert fast.net._waiting == sorted(fast.net._waiting)
        assert fast.net._active_transfers == reference.net._active_transfers
        assert not fast.net._released and not reference.net._scan_needed
        deepest = max(deepest, len(fast.net._waiting))
    stats = fast.net.stats
    # The script reached the paths under test.
    assert deepest >= 3 and stats.forwarded > 0 and stats.abandoned_messages > 0
    assert stats == reference.net.stats


def test_transfer_observation_is_immutable():
    observation = TransferObservation(
        "a", "b", 1000.0, 2.0, 0.0, 2.05, MessageKind.DATA
    )
    assert observation.query_id is None
    assert observation.measured_bandwidth == 500.0
    with pytest.raises(AttributeError):
        observation.wire_bytes = 1.0
