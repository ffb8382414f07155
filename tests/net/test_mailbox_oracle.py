"""Direct-handoff mailboxes against the store-based reference mailbox.

:class:`repro.net.host.Mailbox` hands a delivered message straight to a
waiting getter instead of routing it through a priority store.  A seeded
random interleaving of deliveries (every message kind, so every
priority class), process-side gets, ``len`` probes and mid-stream
``Host.remove_mailbox`` drains runs once on the direct mailbox and once
on :class:`~tests.net.reference_mailbox.ReferenceMailbox`, each in a
fresh environment: every receipt must land at the same simulated time,
in the same order, and every drain must return the same messages.
"""

import random

import pytest

from repro.net import host as host_module
from repro.net.host import Host, Mailbox
from repro.net.message import Message, MessageKind
from repro.sim import Environment
from tests.net.reference_mailbox import ReferenceMailbox

ACTORS = ("a", "b")
KINDS = tuple(MessageKind)


def _script(seed: int, steps: int = 300) -> list[tuple]:
    """A random operation sequence; the same messages feed both runs."""
    rng = random.Random(seed)
    ops: list[tuple] = []
    for _ in range(steps):
        roll = rng.random()
        actor = rng.choice(ACTORS)
        if roll < 0.45:
            message = Message(rng.choice(KINDS), "src", actor, 10)
            ops.append(("deliver", actor, message))
        elif roll < 0.65:
            # A consumer taking several messages, pausing (or not) first.
            pauses = [rng.choice((0.0, 0.0, 0.25, 1.0)) for _ in range(rng.randint(1, 4))]
            ops.append(("consume", actor, pauses))
        elif roll < 0.75:
            ops.append(("len", actor))
        elif roll < 0.8:
            ops.append(("remove", actor))
        else:
            ops.append(("wait", rng.choice((0.0, 0.5, 1.0))))
    return ops


def _run(mailbox_class, ops, monkeypatch) -> tuple[list[tuple], int]:
    """Play ``ops`` on a fresh host whose mailboxes are ``mailbox_class``."""
    log: list[tuple] = []
    with monkeypatch.context() as patch:
        patch.setattr(host_module, "Mailbox", mailbox_class)
        env = Environment()
        host = Host(env, "h")

        def consumer(env, tag, actor, pauses):
            for pause in pauses:
                if pause:
                    yield env.timeout(pause)
                message = yield host.mailbox(actor).get()
                log.append(("recv", tag, env.now, message.uid))

        def driver(env):
            for index, op in enumerate(ops):
                if op[0] == "deliver":
                    host.mailbox(op[1]).deliver(op[2])
                elif op[0] == "consume":
                    env.process(consumer(env, index, op[1], op[2]))
                elif op[0] == "len":
                    log.append(("len", op[1], env.now, len(host.mailbox(op[1]))))
                elif op[0] == "remove":
                    drained = host.remove_mailbox(op[1])
                    log.append(("drain", op[1], env.now, [m.uid for m in drained]))
                else:
                    yield env.timeout(op[1])

        env.process(driver(env))
        env.run()
        for actor in ACTORS:
            leftover = host.remove_mailbox(actor)
            log.append(("drain", actor, env.now, [m.uid for m in leftover]))
    return log, env.events_processed


@pytest.mark.parametrize("seed", range(12))
def test_direct_handoff_matches_reference(seed, monkeypatch):
    ops = _script(seed)
    direct, direct_events = _run(Mailbox, ops, monkeypatch)
    reference, reference_events = _run(ReferenceMailbox, ops, monkeypatch)
    assert direct == reference
    # The script must exercise every path it claims to.
    kinds = {entry[0] for entry in direct}
    assert {"recv", "len", "drain"} <= kinds
    assert any(entry[0] == "drain" and entry[3] for entry in direct)
    # The only calendar events elided are the reference's StorePuts,
    # exactly one per delivery.
    deliveries = sum(op[0] == "deliver" for op in ops)
    assert reference_events - direct_events == deliveries

