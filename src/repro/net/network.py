"""The network: hosts, links, actor registry and the transfer engine.

Transfer semantics (paper §4):

* every transfer pays a 50 ms startup cost and then drains bytes at the
  link trace's (time-varying) rate;
* both endpoints' single NICs are held for the whole transfer — this is
  what produces **end-point congestion** when several producers feed one
  consumer;
* NIC queueing is by message priority, so barrier/control messages
  overtake queued bulk data;
* the two NICs are acquired in canonical (sorted-name) order, which makes
  the two-resource acquisition deadlock-free while preserving the
  single-interface constraint.

The network also keeps the **actor registry** — the ground-truth location
of every data-flow actor.  Senders address actors at the host they believe
the actor lives on; if the actor has moved (possible with the local
algorithm's eventually-consistent location vectors), the message is
forwarded, paying for the extra hop, as a mobile-object runtime would.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional

from repro.faults.plan import TransferAbandoned
from repro.net.host import Host
from repro.net.link import Link
from repro.net.message import Message, MessageKind
from repro.obs.events import (
    LINK_TRANSFER,
    MESSAGE_FORWARD,
    MESSAGE_RECV,
    MESSAGE_SEND,
    NET_ABANDON,
    NET_DROP,
    NET_RETRANSMIT,
)
from repro.obs.tracer import ensure_tracer
from repro.sim import URGENT, Environment, Event


class TransferObservation(NamedTuple):
    """What a completed wire transfer looked like (fed to monitors).

    Immutable; a named tuple because one is built per completed transfer.
    """

    src_host: str
    dst_host: str
    #: Bytes moved on the wire (payload + headers + piggyback).
    wire_bytes: float
    #: Seconds the bytes took *excluding* the startup cost.
    data_seconds: float
    started: float
    finished: float
    kind: MessageKind
    #: Owning workload query (None for single-query runs / shared traffic).
    query_id: Optional[str] = None

    @property
    def measured_bandwidth(self) -> float:
        """Observed application-level bandwidth, bytes/second."""
        if self.data_seconds <= 0:
            return float("inf")
        return self.wire_bytes / self.data_seconds


@dataclass
class NetworkStats:
    """Aggregate traffic statistics."""

    transfers: int = 0
    local_deliveries: int = 0
    forwarded: int = 0
    bytes_on_wire: float = 0.0
    #: Resilience counters (zero unless a fault plan is installed).
    retransmissions: int = 0
    dropped_bytes: float = 0.0
    abandoned_messages: int = 0
    #: How each completed transfer was simulated: collapsed analytically
    #: into one completion event (fluid) or stepped through the full DES
    #: process path.  ``fluid_transfers + des_transfers == transfers``.
    fluid_transfers: int = 0
    des_transfers: int = 0


class Network:
    """A complete graph of hosts with trace-driven links."""

    #: Fluid fast path (see :meth:`_start_transfer`): admitted transfers
    #: whose window contains no fault boundary complete via one
    #: analytically-scheduled callback event instead of a generator
    #: process.  Results are bit-identical either way; only the
    #: equivalence tests switch it off, to run the full DES path as the
    #: reference.
    FLUID_FAST_PATH = True

    def __init__(self, env: Environment, tracer=None) -> None:
        self.env = env
        self._tracer = ensure_tracer(tracer)
        self.hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._actor_hosts: dict[str, str] = {}
        self.stats = NetworkStats()
        #: Per-query traffic statistics, keyed by ``Message.query_id``.
        #: Only populated when messages carry a query tag (workload runs);
        #: the aggregate :attr:`stats` always counts everything.
        self.query_stats: dict[str, NetworkStats] = {}
        #: Transfer arbiter state: waiting transfers (a list sorted by
        #: priority, then arrival), per-host active-transfer counts, and a
        #: FIFO tie-breaker.
        self._waiting: list[tuple] = []
        self._active_transfers: dict[str, int] = {}
        #: NIC capacities, cached flat at registration (hosts never change
        #: capacity after construction) so the dispatch loop's per-entry
        #: check is two dict lookups instead of four plus attribute hops.
        self._nic_caps: dict[str, int] = {}
        self._sequence = 0
        #: Hosts whose NIC capacity was released since the last dispatch
        #: scan.  While empty, every queued transfer is still blocked
        #: (capacity only shrinks between scans), so :meth:`send` may
        #: start/queue its one new message without a scan; a scan only
        #: considers queued transfers that touch one of these hosts.
        self._released: set[str] = set()
        #: Monitoring hook: called with each TransferObservation.
        self.observers: list[Callable[[TransferObservation], None]] = []
        #: Optional piggyback source: ``(src_host, dst_host) -> dict`` with
        #: at least a ``"bytes"`` entry; attached to outgoing messages.
        self.piggyback_source: Optional[Callable[[str, str], Optional[dict]]] = None
        #: Optional piggyback sink:
        #: ``(dst_host, piggyback_dict, query_id) -> None``.
        self.piggyback_sink: Optional[
            Callable[[str, dict, Optional[str]], None]
        ] = None
        #: Fault injector (see :meth:`install_faults`).  None (the
        #: default) keeps transfers on the exact unfaulted code path.
        self._faults = None

    @property
    def _scan_needed(self) -> bool:
        """True while released NIC capacity awaits a dispatch scan."""
        return bool(self._released)

    @_scan_needed.setter
    def _scan_needed(self, value: bool) -> None:
        # Forcing a scan marks every NIC released, which makes the next
        # scan consider every queued transfer.
        if value:
            self._released.update(self.hosts)
        else:
            self._released.clear()

    def install_faults(self, injector) -> None:
        """Route transfers through ``injector``'s outage/loss/retry model."""
        self._faults = injector

    def stats_for(self, query_id: str) -> NetworkStats:
        """The per-query traffic counters for ``query_id`` (created at zero)."""
        stats = self.query_stats.get(query_id)
        if stats is None:
            stats = self.query_stats[query_id] = NetworkStats()
        return stats

    # -- topology ---------------------------------------------------------
    def add_host(self, host: Host) -> Host:
        """Register a host (names must be unique)."""
        if host.name in self.hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host
        self._active_transfers[host.name] = 0
        self._nic_caps[host.name] = host.nic_capacity
        return host

    def _has_free_interface(self, host: str) -> bool:
        return self._active_transfers[host] < self._nic_caps[host]

    def add_link(self, link: Link) -> Link:
        """Register the link between two existing hosts."""
        for endpoint in link.key:
            if endpoint not in self.hosts:
                raise ValueError(f"link endpoint {endpoint!r} is not a host")
        if link.key in self._links:
            raise ValueError(f"duplicate link {link.key!r}")
        self._links[link.key] = link
        return link

    def link(self, a: str, b: str) -> Link:
        """The link between hosts ``a`` and ``b``."""
        key = (a, b) if a < b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            raise KeyError(f"no link between {a!r} and {b!r}") from None

    def links(self) -> Iterable[Link]:
        """All links, in canonical key order."""
        return [self._links[key] for key in sorted(self._links)]

    def bandwidth_at(self, a: str, b: str, t: float) -> float:
        """True instantaneous bandwidth between two hosts (oracle access)."""
        if t < 0:
            raise ValueError(f"negative time {t!r}")
        if a == b:
            return float("inf")
        return self.link(a, b).bandwidth_at(t)

    def mean_bandwidth(self, a: str, b: str, t0: float, t1: float) -> float:
        """True time-averaged bandwidth over ``[t0, t1]`` (oracle access)."""
        if t0 < 0:
            raise ValueError(f"negative window start {t0!r}")
        if t1 < t0:
            raise ValueError(f"window end {t1!r} precedes start {t0!r}")
        if a == b:
            return float("inf")
        return self.link(a, b).trace.mean_rate(t0, t1)

    # -- actor registry ------------------------------------------------------
    def register_actor(self, actor: str, host: str) -> None:
        """Declare that ``actor`` (a tree-node process) lives on ``host``."""
        if host not in self.hosts:
            raise ValueError(f"unknown host {host!r}")
        self._actor_hosts[actor] = host

    def actor_host(self, actor: str) -> str:
        """Ground-truth current host of ``actor``."""
        try:
            return self._actor_hosts[actor]
        except KeyError:
            raise KeyError(f"actor {actor!r} is not registered") from None

    def move_actor(self, actor: str, new_host: str) -> list[Message]:
        """Atomically re-home ``actor``; returns messages left at the old host.

        The caller (the engine's relocation machinery) is responsible for
        re-delivering the returned messages at the new location.
        """
        old_host = self.actor_host(actor)
        if new_host not in self.hosts:
            raise ValueError(f"unknown host {new_host!r}")
        self._actor_hosts[actor] = new_host
        if old_host == new_host:
            return []
        return self.hosts[old_host].remove_mailbox(actor)

    def unregister_actor(self, actor: str) -> None:
        """Drop ``actor`` from the registry (throwaway probe/transfer endpoints).

        Unknown actors are ignored; in-flight messages to an unregistered
        actor are delivered at their arrival host (no forwarding).
        """
        self._actor_hosts.pop(actor, None)

    # -- transfers -------------------------------------------------------------
    def send(
        self,
        message: Message,
        src_host: Optional[str] = None,
        dst_host: Optional[str] = None,
    ) -> "Event":
        """Start transmitting ``message``; the returned event fires on delivery.

        ``src_host`` / ``dst_host`` default to the registry locations of
        the source / destination actors.  If the destination actor has
        moved by the time the message arrives, it is forwarded (charged as
        an additional transfer).

        Transfers are scheduled by a central arbiter: a transfer starts as
        soon as **both** endpoints' network interfaces are free, and when
        an interface frees up the waiting transfers are scanned in
        (priority, arrival) order.  This realizes the paper's single-NIC
        assumption with priority queueing (barrier messages overtake
        enqueued data) and is trivially deadlock-free — a transfer never
        holds one interface while waiting for the other.
        """
        return self._send(message, src_host, dst_host, self.env.event())

    def post(
        self,
        message: Message,
        src_host: Optional[str] = None,
        dst_host: Optional[str] = None,
    ) -> None:
        """Fire-and-forget :meth:`send`: no delivery event is created.

        Most traffic (data, demands, barriers) never waits on delivery —
        the sender continues immediately and the ``done`` event fires
        with zero callbacks, a pure-waste calendar entry.  Posting skips
        it.  Eliding a no-op event cannot reorder anything: remaining
        calendar entries keep their relative order, and processing the
        elided event ran no callbacks.  With the fast path disabled this
        degrades to a plain send so full-DES reference runs reproduce
        the classic event schedule exactly.
        """
        if not self.FLUID_FAST_PATH:
            self.send(message, src_host, dst_host)
            return
        self._send(message, src_host, dst_host, None)

    def _send(
        self,
        message: Message,
        src_host: Optional[str],
        dst_host: Optional[str],
        done: "Optional[Event]",
    ) -> "Optional[Event]":
        src = src_host or self.actor_host(message.src_actor)
        dst = dst_host or self.actor_host(message.dst_actor)
        if src not in self.hosts or dst not in self.hosts:
            raise ValueError(f"unknown endpoint in {src!r}->{dst!r}")
        message.src_host, message.dst_host = src, dst
        message.sent_at = self.env.now

        tracer = self._tracer
        if src == dst:
            self.stats.local_deliveries += 1
            if message.query_id is not None:
                self.stats_for(message.query_id).local_deliveries += 1
            if tracer.enabled:
                tracer.emit(
                    MESSAGE_SEND,
                    self.env.now,
                    transport="local",
                    **message.trace_fields(),
                )
            message.delivered_at = self.env.now
            self._deliver(message, dst)
            if done is not None:
                done.succeed(message)
            return done

        if self.piggyback_source is not None and message.piggyback is None:
            message.piggyback = self.piggyback_source(src, dst)

        if tracer.enabled:
            tracer.emit(
                MESSAGE_SEND,
                self.env.now,
                transport="wire",
                **message.trace_fields(),
            )
        self._admit(message, src, dst, done)
        return done

    def _admit(self, message: Message, src: str, dst: str, done) -> None:
        """Start a new wire transfer now, or queue it for the arbiter."""
        self._sequence += 1
        released = self._released
        active = self._active_transfers
        caps = self._nic_caps
        if not released and active[src] < caps[src] and active[dst] < caps[dst]:
            # Every queued transfer is still blocked, so only *this*
            # message can possibly start.  Starting it directly is
            # order-identical to a scan: each queued transfer stays blocked
            # by the endpoint that blocked it, whose load has not fallen.
            active[src] += 1
            active[dst] += 1
            self._start_transfer(message, src, dst, done)
            return
        priority = int(message.priority or 0)
        insort(self._waiting, (priority, self._sequence, message, src, dst, done))
        if released:
            # Capacity was released since the last scan: mark the new
            # transfer's endpoints too, so the scan weighs it in
            # (priority, arrival) order against the freed ones.
            released.add(src)
            released.add(dst)
            self._dispatch_transfers()

    def _release(self, src: str, dst: str) -> None:
        """Free one NIC slot at each endpoint of a finished transfer."""
        self._active_transfers[src] -= 1
        self._active_transfers[dst] -= 1
        self._released.add(src)
        self._released.add(dst)

    def _dispatch_transfers(self) -> None:
        """Start every queued transfer that released capacity now admits.

        Queued transfers are walked in (priority, arrival) order, but only
        those touching a host in :attr:`_released` are considered.  That is
        exact: any other queued transfer was blocked, at the last scan or
        when it was queued, by an endpoint whose load has only grown since
        (loads fall only through :meth:`_release`).
        """
        released = self._released
        if not released:
            return
        waiting = self._waiting
        active = self._active_transfers
        caps = self._nic_caps
        i = 0
        while i < len(waiting):
            __, __, message, src, dst, done = waiting[i]
            if (
                (src in released or dst in released)
                and active[src] < caps[src]
                and active[dst] < caps[dst]
            ):
                del waiting[i]
                active[src] += 1
                active[dst] += 1
                self._start_transfer(message, src, dst, done)
            else:
                i += 1
        released.clear()

    def _start_transfer(self, message: Message, src: str, dst: str, done) -> None:
        """Launch an admitted transfer (both endpoint NICs already held).

        The fluid fast path: the paper's core quantity — time to push N
        bytes over a time-varying link — is computable analytically from
        the trace's prefix sums, so an uncontended, fault-free transfer
        needs no generator machinery.  When no fault boundary can touch
        the window ``[now, now + duration)`` (trivially true without an
        injector; otherwise checked via
        :meth:`~repro.faults.injector.FaultInjector.next_boundary`, a
        clean start and no loss stream), completion is **one**
        lightweight callback event instead of a process's init event,
        timeout and process-completion event.  Any arbiter-grant, fault
        or loss condition falls back to the full DES path unchanged.
        """
        env = self.env
        if self.FLUID_FAST_PATH:
            faults = self._faults
            if faults is None:
                link = self.link(src, dst)
                started = env.now
                duration = link.transmission_time(message.wire_size, started)
                env.schedule_callback(
                    duration,
                    partial(
                        self._finish_transfer,
                        message, src, dst, done, link, started, duration, True,
                    ),
                )
                return
            started = env.now
            if (
                faults.link_blocked(src, dst, started) is None
                and not faults.has_loss(src, dst)
            ):
                link = self.link(src, dst)
                duration = link.transmission_time(message.wire_size, started)
                boundary = faults.next_boundary(
                    link.key, (src, dst), started, started + duration
                )
                if boundary is None:
                    # Faulted runs mix fluid and DES transfers.  Routing
                    # the completion through an URGENT launch callback —
                    # scheduled exactly where the DES path schedules its
                    # process-init event — gives the completion the same
                    # calendar sequence number the DES Timeout would get,
                    # so same-instant completions of mixed fluid/DES
                    # transfers interleave exactly as before.
                    def _launch():
                        env.schedule_callback(
                            duration,
                            lambda: self._finish_transfer(
                                message, src, dst, done, link, started,
                                duration, fluid=True,
                            ),
                        )

                    env.schedule_callback(0.0, _launch, priority=URGENT)
                    return
        env.process(
            self._run_transfer(message, src, dst, done),
            name=f"xfer#{message.uid}",
        )

    def _run_transfer(self, message: Message, src: str, dst: str, done):
        """The full DES transfer path (process generator)."""
        link = self.link(src, dst)
        wire_size = message.wire_size
        if self._faults is None:
            started = self.env.now
            duration = link.transmission_time(wire_size, started)
            yield self.env.timeout(duration)
        else:
            attempt = yield from self._faulty_attempts(message, link, src, dst, done)
            if attempt is None:
                return  # abandoned: NICs released, done failed (defused)
            started, duration = attempt
        self._finish_transfer(
            message, src, dst, done, link, started, duration, fluid=False
        )

    def _finish_transfer(
        self,
        message: Message,
        src: str,
        dst: str,
        done,
        link: Link,
        started: float,
        duration: float,
        fluid: bool,
    ) -> None:
        """Complete an in-flight transfer: the post-wire half of the
        transfer engine, shared verbatim by the DES generator and the
        fluid fast path so the two stay bookkeeping-identical — stats,
        tracer span, observers, piggyback, delivery, ``done``, then the
        arbiter rescan, in exactly that order.
        """
        wire_size = message.wire_size
        finished = self.env.now

        # Capacity is released now: any send before the trailing scan
        # (e.g. a forward out of _deliver) scans the queue itself.
        self._release(src, dst)

        src_node, dst_node = self.hosts[src], self.hosts[dst]
        src_node.stats.messages_sent += 1
        src_node.stats.bytes_sent += wire_size
        src_node.stats.nic_busy_time += duration
        dst_node.stats.messages_received += 1
        dst_node.stats.bytes_received += wire_size
        dst_node.stats.nic_busy_time += duration
        self.stats.transfers += 1
        self.stats.bytes_on_wire += wire_size
        if fluid:
            self.stats.fluid_transfers += 1
        else:
            self.stats.des_transfers += 1
        query_id = message.query_id
        if query_id is not None:
            query_stats = self.stats_for(query_id)
            query_stats.transfers += 1
            query_stats.bytes_on_wire += wire_size
            if fluid:
                query_stats.fluid_transfers += 1
            else:
                query_stats.des_transfers += 1
        link.note_transfer(wire_size)

        observation = TransferObservation(
            src_host=src,
            dst_host=dst,
            wire_bytes=wire_size,
            data_seconds=duration - link.startup_cost,
            started=started,
            finished=finished,
            kind=message.kind,
            query_id=query_id,
        )
        tracer = self._tracer
        if tracer.enabled:
            tag = {} if query_id is None else {"query_id": query_id}
            tracer.span(
                LINK_TRANSFER,
                started,
                finished,
                src_host=src,
                dst_host=dst,
                kind=message.kind.value,
                wire_bytes=wire_size,
                bandwidth=observation.measured_bandwidth,
                uid=message.uid,
                **tag,
            )
            tracer.observe("link.transfer_seconds", duration)

        for observer in self.observers:
            observer(observation)
        if self.piggyback_sink is not None and message.piggyback is not None:
            self.piggyback_sink(dst, message.piggyback, query_id)

        message.delivered_at = self.env.now
        self._deliver(message, dst)
        if done is not None:
            done.succeed(message)
        self._dispatch_transfers()

    def _faulty_attempts(self, message: Message, link: Link, src: str, dst: str, done):
        """Attempt the transfer under the installed fault plan.

        Returns ``(started, duration)`` of the successful attempt, or None
        if the retry budget ran out (the message is then abandoned: both
        NICs are released and ``done`` fails with
        :class:`~repro.faults.plan.TransferAbandoned`, defused so that
        fire-and-forget sends lose the message without crashing the run).

        Both NICs stay held across retries and backoffs — a retransmitting
        endpoint is genuinely busy, and a single arbiter slot keeps the
        schedule deterministic.
        """
        faults = self._faults
        retry = faults.retry
        tracer = self._tracer
        query_id = message.query_id
        wire_size = message.wire_size
        tag = {} if query_id is None else {"query_id": query_id}
        attempt = 0
        while True:
            attempt += 1
            now = self.env.now
            reason = faults.link_blocked(src, dst, now)
            if reason is None:
                started = now
                duration = link.transmission_time(wire_size, started)
                if not faults.drop_message(src, dst):
                    yield self.env.timeout(duration)
                    return started, duration
                # Lost in flight: the bytes went on the wire and vanished.
                # Pay the send time, then back off and retransmit.
                self.stats.dropped_bytes += wire_size
                if query_id is not None:
                    self.stats_for(query_id).dropped_bytes += wire_size
                if tracer.enabled:
                    tracer.emit(
                        NET_DROP,
                        now,
                        src_host=src,
                        dst_host=dst,
                        uid=message.uid,
                        bytes=wire_size,
                        **tag,
                    )
                reason = "loss"
                wait = duration + retry.backoff_delay(attempt)
            else:
                wait = retry.backoff_delay(attempt)
            if retry.max_attempts is not None and attempt >= retry.max_attempts:
                self.stats.abandoned_messages += 1
                if query_id is not None:
                    self.stats_for(query_id).abandoned_messages += 1
                if tracer.enabled:
                    tracer.emit(
                        NET_ABANDON,
                        now,
                        src_host=src,
                        dst_host=dst,
                        uid=message.uid,
                        attempts=attempt,
                        reason=reason,
                        **tag,
                    )
                self._release(src, dst)
                if done is not None:
                    done.defused = True
                    done.fail(
                        TransferAbandoned(
                            f"message #{message.uid} {src}->{dst} abandoned "
                            f"after {attempt} attempts ({reason})"
                        )
                    )
                self._dispatch_transfers()
                return None
            self.stats.retransmissions += 1
            if query_id is not None:
                self.stats_for(query_id).retransmissions += 1
            if tracer.enabled:
                tracer.emit(
                    NET_RETRANSMIT,
                    now,
                    src_host=src,
                    dst_host=dst,
                    uid=message.uid,
                    attempt=attempt,
                    reason=reason,
                    wait=wait,
                    **tag,
                )
            yield self.env.timeout(wait)

    def _deliver(self, message: Message, arrived_at: str) -> None:
        actual = self._actor_hosts.get(message.dst_actor, arrived_at)
        tracer = self._tracer
        tag = (
            {} if message.query_id is None else {"query_id": message.query_id}
        )
        if actual != arrived_at:
            # The destination actor moved while the message was in flight:
            # forward it (mobile-object runtimes do exactly this).  Nothing
            # waits on the forwarded copy's delivery, so it is posted.
            self.stats.forwarded += 1
            if message.query_id is not None:
                self.stats_for(message.query_id).forwarded += 1
            if tracer.enabled:
                tracer.emit(
                    MESSAGE_FORWARD,
                    self.env.now,
                    uid=message.uid,
                    actor=message.dst_actor,
                    from_host=arrived_at,
                    to_host=actual,
                    **tag,
                )
            self.post(message, src_host=arrived_at, dst_host=actual)
            return
        if tracer.enabled:
            tracer.emit(
                MESSAGE_RECV,
                self.env.now,
                uid=message.uid,
                actor=message.dst_actor,
                host=arrived_at,
                kind=message.kind.value,
                **tag,
            )
        self.hosts[arrived_at].mailbox(message.dst_actor).deliver(message)
