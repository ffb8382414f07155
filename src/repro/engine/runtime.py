"""Shared run-time state and plumbing for the execution engine."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.app.composition import CompositionSpec
from repro.app.images import ImageWorkload
from repro.dataflow.placement import Placement
from repro.dataflow.tree import CLIENT_ID, CombinationTree
from repro.engine.config import Algorithm, SimulationSpec
from repro.engine.metrics import RelocationEvent, RunMetrics
from repro.engine.vectors import VectorStore
from repro.monitor.system import MonitoringSystem
from repro.net.host import Host
from repro.net.message import (
    PRIORITY_BARRIER,
    PRIORITY_DATA,
    Message,
    MessageKind,
)
from repro.faults.plan import TransferAbandoned
from repro.net.network import Network
from repro.obs.events import ARRIVAL, RELOCATION, RELOCATION_ABORT
from repro.obs.tracer import ensure_tracer
from repro.sim import Environment, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.actors import OperatorActor


class Runtime:
    """Everything the actors and controllers share during one run.

    The runtime owns message plumbing (with vector piggybacking for the
    local algorithm), relocation mechanics, barrier bookkeeping for the
    global algorithm, and the run metrics.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        monitoring: MonitoringSystem,
        tree: CombinationTree,
        workload: ImageWorkload,
        spec: SimulationSpec,
        initial_placement: Placement,
        server_replicas: "Optional[dict[str, tuple[str, ...]]]" = None,
        tracer=None,
        namespace: str = "",
        query_id: Optional[str] = None,
    ) -> None:
        self.env = env
        self.network = network
        # The network's registry and host maps, read directly by the
        # location lookups below (the network only mutates them in place).
        self._actor_hosts = network._actor_hosts
        self._hosts = network.hosts
        self.tracer = ensure_tracer(tracer)
        #: Prefix applied to every actor id this runtime registers with the
        #: (possibly shared) network, so several queries' identically-named
        #: tree nodes ("client", "s0", "op0", ...) coexist on one network.
        #: Empty for single-query runs, whose ids then cross the boundary
        #: unchanged — which is what keeps ``run_simulation`` bit-identical
        #: to its pre-workload behaviour.
        self.namespace = namespace
        #: Tag stamped on every message this runtime sends; drives the
        #: network's and monitor's per-query accounting and the trace
        #: ``query_id`` field.  ``None`` for single-query runs.
        self.query_id = query_id
        self.monitoring = monitoring
        self.tree = tree
        self.workload = workload
        self.spec = spec
        self.compose: CompositionSpec = spec.compose
        self.num_images = spec.images_per_server

        self.initial_placement = initial_placement
        #: The placement currently intended to be running (ground truth for
        #: the global controller; individual nodes may lag mid-change-over).
        self.current_placement = initial_placement

        #: Replica hosts per server (primary first); single-entry tuples
        #: mean the paper's unreplicated default.
        self.server_replicas: dict[str, tuple[str, ...]] = dict(
            server_replicas or {}
        )
        #: Immovable nodes: the client, plus every server whose data has a
        #: single replica (with replication, servers may switch replicas
        #: at a barrier change-over just like operators move).
        self.pinned_hosts: dict[str, str] = {CLIENT_ID: spec.client_host}
        for server in tree.servers():
            replicas = self.server_replicas.get(server.node_id, ())
            if len(replicas) <= 1:
                self.pinned_hosts[server.node_id] = initial_placement.host_of(
                    server.node_id
                )

        #: Per-host location/timestamp vectors over the relocatable
        #: actors (§2.3): operators, plus replica-switchable servers.
        movable_locations = {
            op.node_id: initial_placement.host_of(op.node_id)
            for op in tree.operators()
        }
        for server in tree.servers():
            if server.node_id not in self.pinned_hosts:
                movable_locations[server.node_id] = initial_placement.host_of(
                    server.node_id
                )
        self.vectors: dict[str, VectorStore] = {
            host: VectorStore(movable_locations) for host in network.hosts
        }

        self.metrics = RunMetrics(
            algorithm=spec.algorithm.value,
            num_servers=spec.num_servers,
            images=self.num_images,
        )
        self.done: Event = env.event()
        self.operators: dict[str, "OperatorActor"] = {}
        #: Set by the simulation builder once the client actor exists.
        self.client_actor = None
        #: Fault injector, set by the simulation builder when a fault
        #: plan is active; None keeps relocation on the unfaulted path.
        self.faults = None
        #: Cooperative-cancellation flag (deadline aborts).  Once set, the
        #: client stops demanding new iterations and the pipeline drains.
        self.cancelled = False

        self._barrier_events: dict[int, Event] = {}
        self._barrier_reports: dict[int, dict[str, int]] = {}

        # Register every actor's starting location.
        for node in tree.nodes():
            network.register_actor(
                self.net_id(node.node_id),
                initial_placement.host_of(node.node_id),
            )

    def cancel(self) -> None:
        """Stop issuing new work; in-flight transfers drain naturally."""
        self.cancelled = True

    # -- actor-id namespacing -------------------------------------------------
    def net_id(self, actor: str) -> str:
        """The network-registry name for one of this runtime's actors."""
        return self.namespace + actor if self.namespace else actor

    def local_id(self, actor: str) -> str:
        """Strip this runtime's namespace off a network actor id."""
        ns = self.namespace
        if ns and actor.startswith(ns):
            return actor[len(ns):]
        return actor

    # -- locations ------------------------------------------------------------
    def host_of(self, actor: str) -> str:
        """Ground-truth current host of an actor."""
        net_id = self.namespace + actor
        try:
            return self._actor_hosts[net_id]
        except KeyError:
            raise KeyError(f"actor {net_id!r} is not registered") from None

    def host_obj(self, actor: str) -> Host:
        """The :class:`Host` an actor currently runs on."""
        return self._hosts[self.host_of(actor)]

    def mailbox_of(self, actor: str):
        """The mailbox an actor reads, under its network-registry name."""
        return self._hosts[self.host_of(actor)].mailbox(self.namespace + actor)

    # -- messaging --------------------------------------------------------------
    def barrier_msg_priority(self) -> int:
        """Priority for barrier messages (ablation switch, §2.2)."""
        return PRIORITY_BARRIER if self.spec.barrier_priority else PRIORITY_DATA

    def send(
        self,
        kind: MessageKind,
        src_actor: str,
        dst_actor: str,
        size: float,
        payload: dict[str, Any],
        dst_host: Optional[str] = None,
        priority: Optional[int] = None,
    ) -> Message:
        """Send a message from an actor to another actor's believed host.

        For the local algorithm the sender's host piggybacks its location
        and timestamp vectors plus its own authoritative entry.
        """
        src_host = self.host_of(src_actor)
        if self.spec.algorithm is Algorithm.LOCAL:
            store = self.vectors[src_host]
            timestamps, locations = store.snapshot()
            payload = dict(payload)
            payload["_vec_ts"] = timestamps
            payload["_vec_loc"] = locations
            payload["_from_host"] = src_host
            if src_actor in store.timestamps:
                payload["_sender_ts"] = store.timestamps[src_actor]
        message = Message(
            kind=kind,
            src_actor=self.net_id(src_actor),
            dst_actor=self.net_id(dst_actor),
            size=size,
            payload=payload,
            priority=priority,
            query_id=self.query_id,
        )
        # Fire-and-forget: nothing ever waits on these deliveries, so
        # post() skips the delivery event entirely.
        self.network.post(message, src_host=src_host, dst_host=dst_host)
        return message

    def ingest_vectors(self, message: Message, receiver_host: str) -> None:
        """Merge piggybacked location knowledge at the receiving host."""
        payload = message.payload
        timestamps = payload.get("_vec_ts")
        if timestamps is None:
            return
        store = self.vectors[receiver_host]
        store.merge(timestamps, payload["_vec_loc"])
        sender_ts = payload.get("_sender_ts")
        if sender_ts is not None:
            store.refresh_entry(
                self.local_id(message.src_actor),
                payload["_from_host"],
                sender_ts,
            )

    # -- relocation ----------------------------------------------------------------
    def relocate(self, op_id: str, new_host: str):
        """Process generator: move an operator (light-move window only).

        The move is a two-phase, abortable transaction.  Phase one ships
        the serialized operator state to the destination as a control
        message; only once it has arrived does phase two commit the move
        (re-home the mailbox, run the paper's authoritative vector update
        at the original site, carry the operator's bandwidth/location
        knowledge along).  Under a fault plan phase one can abort — the
        destination is down, the state transfer times out
        (``spec.relocation_timeout``) or is abandoned — and the operator
        simply stays at the source: nothing was committed, so rollback is
        the identity.  Aborts are counted in
        :attr:`~repro.engine.metrics.RunMetrics.aborted_relocations`.
        """
        old_host = self.host_of(op_id)
        if old_host == new_host:
            return
        faults = self.faults
        if faults is not None and faults.host_down(new_host, self.env.now):
            self._abort_relocation(op_id, old_host, new_host, "destination-down")
            return
        transfer_actor = self.net_id(f"_xfer-{op_id}")
        self.network.register_actor(transfer_actor, new_host)
        state_msg = Message(
            kind=MessageKind.CONTROL,
            src_actor=self.net_id(op_id),
            dst_actor=transfer_actor,
            size=self.spec.op_state_bytes,
            payload={"type": "operator-state", "operator": op_id},
            query_id=self.query_id,
        )
        delivery = self.network.send(
            state_msg, src_host=old_host, dst_host=new_host
        )
        if faults is None:
            yield delivery
        else:
            timeout = self.env.timeout(self.spec.relocation_timeout)
            try:
                yield self.env.any_of([delivery, timeout])
            except TransferAbandoned:
                self.network.unregister_actor(transfer_actor)
                self._abort_relocation(
                    op_id, old_host, new_host, "transfer-abandoned"
                )
                return
            if not delivery.triggered:
                # Timed out.  The state transfer keeps retrying in the
                # background; when it eventually lands (or dies), the
                # stale destination endpoint is cleaned up.
                delivery.defused = True
                network = self.network
                def _late_cleanup(_event, host=new_host, actor=transfer_actor):
                    network.hosts[host].remove_mailbox(actor)
                    network.unregister_actor(actor)
                delivery.callbacks.append(_late_cleanup)
                self._abort_relocation(op_id, old_host, new_host, "timeout")
                return
        self.network.hosts[new_host].remove_mailbox(transfer_actor)
        self.network.unregister_actor(transfer_actor)

        pending = self.network.move_actor(self.net_id(op_id), new_host)
        new_mailbox = self.network.hosts[new_host].mailbox(self.net_id(op_id))
        for queued in pending:
            new_mailbox.deliver(queued)

        self.vectors[old_host].record_move(op_id, new_host)
        self.vectors[new_host].carry_from(self.vectors[old_host])
        # The operator's own cache rides along too: its measurements are
        # host-to-host facts it learned, not facts about the old host.
        old_cache = self.monitoring.cache_for(old_host)
        new_cache = self.monitoring.cache_for(new_host)
        for entry in old_cache:
            new_cache.merge_entry(entry)

        self.metrics.relocations += 1
        self.metrics.relocation_events.append(
            RelocationEvent(self.env.now, op_id, old_host, new_host)
        )
        if self.tracer.enabled:
            self.tracer.emit(
                RELOCATION,
                self.env.now,
                actor=op_id,
                old_host=old_host,
                new_host=new_host,
                state_bytes=self.spec.op_state_bytes,
            )

    def _abort_relocation(
        self, op_id: str, old_host: str, new_host: str, reason: str
    ) -> None:
        """Roll a failed two-phase move back (the operator never left)."""
        self.metrics.aborted_relocations += 1
        if self.tracer.enabled:
            self.tracer.emit(
                RELOCATION_ABORT,
                self.env.now,
                actor=op_id,
                old_host=old_host,
                new_host=new_host,
                reason=reason,
            )

    # -- monitoring helpers -------------------------------------------------------
    def estimator_for(self, viewer_host: str):
        """Monitoring-backed bandwidth estimator from one host's view."""
        if self.spec.oracle_monitoring:
            # "Perfectly fresh monitoring": the average over the last five
            # minutes, which is what an ideal measurement service reports.
            return lambda a, b: self.network.mean_bandwidth(
                a, b, max(self.env.now - 300.0, 0.0), max(self.env.now, 1.0)
            )

        def estimate(a: str, b: str) -> float:
            return self.monitoring.estimate(viewer_host, a, b, self.env.now).bandwidth

        # Live view: each call may emit a traced MONITOR_ESTIMATE event,
        # so batch engines must not collapse the call sequence.
        estimate.snapshot_safe = False
        return estimate

    def snapshot_estimator(self, viewer_host: str):
        """Dict-backed estimator frozen at the current time.

        Planning evaluates thousands of candidate placements; freezing the
        viewer's monitoring view into a matrix once per planning round
        keeps the search fast and internally consistent.
        """
        now = self.env.now
        hosts = sorted(self.network.hosts)
        matrix: dict[tuple[str, str], float] = {}
        for i, a in enumerate(hosts):
            for b in hosts[i + 1 :]:
                if self.spec.oracle_monitoring:
                    matrix[(a, b)] = self.network.mean_bandwidth(
                        a, b, max(now - 300.0, 0.0), max(now, 1.0)
                    )
                else:
                    matrix[(a, b)] = self.monitoring.estimate(
                        viewer_host, a, b, now
                    ).bandwidth

        def estimate(a: str, b: str) -> float:
            if a == b:
                return float("inf")
            return matrix[(a, b) if a < b else (b, a)]

        # Pure dict lookups over a frozen matrix: safe for the vectorized
        # planner engine to snapshot once per plan call.
        estimate.snapshot_safe = True
        return estimate

    def remote_probe(self, requester_host: str, a: str, b: str):
        """Process generator: have the pair ``(a, b)`` measured on behalf
        of ``requester_host``.

        If the requester is an endpoint, it probes directly.  Otherwise it
        sends a small probe request to ``a``, ``a`` probes ``b``, and the
        acknowledgement back to the requester piggybacks the fresh
        measurement into the requester's cache.
        """
        if requester_host == a or requester_host == b:
            near, far = (a, b) if requester_host == a else (b, a)
            result = yield from self.monitoring.probe(
                near, far, query_id=self.query_id
            )
            return result

        ctl_requester = self.net_id(f"_probe-ctl@{requester_host}")
        ctl_remote = self.net_id(f"_probe-ctl@{a}")
        self.network.register_actor(ctl_requester, requester_host)
        self.network.register_actor(ctl_remote, a)
        try:
            request = Message(
                kind=MessageKind.CONTROL,
                src_actor=ctl_requester,
                dst_actor=ctl_remote,
                size=0,
                payload={"type": "probe-request", "pair": (a, b)},
                query_id=self.query_id,
            )
            try:
                yield self.network.send(
                    request, src_host=requester_host, dst_host=a
                )
            except TransferAbandoned:
                return None
            self.network.hosts[a].remove_mailbox(ctl_remote)

            bandwidth = yield from self.monitoring.probe(
                a, b, query_id=self.query_id
            )

            reply = Message(
                kind=MessageKind.CONTROL,
                src_actor=ctl_remote,
                dst_actor=ctl_requester,
                size=0,
                payload={
                    "type": "probe-reply",
                    "pair": (a, b),
                    "bandwidth": bandwidth,
                },
                query_id=self.query_id,
            )
            try:
                yield self.network.send(reply, src_host=a, dst_host=requester_host)
            except TransferAbandoned:
                return None
            self.network.hosts[requester_host].remove_mailbox(ctl_requester)
            # The reply's piggyback normally carries the measurement; make
            # the delivery explicit in case piggybacking is disabled.
            if bandwidth is not None:
                self.monitoring.cache_for(requester_host).update(
                    a, b, bandwidth, self.env.now
                )
            return bandwidth
        finally:
            self.network.unregister_actor(ctl_requester)
            self.network.unregister_actor(ctl_remote)

    # -- arrivals & barrier bookkeeping ------------------------------------------
    def note_arrival(self, iteration: int, at: float) -> None:
        """Record a composed image reaching the client."""
        self.metrics.arrival_times.append(at)
        if self.tracer.enabled:
            self.tracer.emit(ARRIVAL, at, iteration=iteration)
        if len(self.metrics.arrival_times) >= self.num_images and not self.done.triggered:
            self.done.succeed(at)

    @property
    def finished(self) -> bool:
        return self.done.triggered

    def start_barrier(self, plan_seq: int) -> Event:
        """Create the event that fires when every server has reported."""
        event = self.env.event()
        self._barrier_events[plan_seq] = event
        self._barrier_reports[plan_seq] = {}
        return event

    def note_report(self, plan_seq: int, server_id: str, next_iteration: int) -> None:
        """Register a server's barrier report; fires the event when complete."""
        reports = self._barrier_reports.get(plan_seq)
        if reports is None:
            return  # late duplicate of an already-finished barrier
        reports[server_id] = next_iteration
        if len(reports) == len(self.tree.servers()):
            event = self._barrier_events.pop(plan_seq)
            self._barrier_reports.pop(plan_seq)
            event.succeed(dict(reports))

    # -- finalization -----------------------------------------------------------
    def finalize_metrics(self, truncated: bool) -> RunMetrics:
        """Copy subsystem counters into the run metrics and return them.

        Single-query runs read the network's and monitor's global stats;
        a workload query reads only its own per-query accounting slice,
        so concurrent queries on a shared network do not pollute each
        other's metrics.
        """
        metrics = self.metrics
        metrics.truncated = truncated
        if self.query_id is None:
            net_stats = self.network.stats
            mon_stats = self.monitoring.stats
        else:
            net_stats = self.network.stats_for(self.query_id)
            mon_stats = self.monitoring.stats_for(self.query_id)
        metrics.probes_sent = mon_stats.probes_sent
        metrics.probe_bytes = mon_stats.probe_bytes
        metrics.forwarded_messages = net_stats.forwarded
        metrics.bytes_on_wire = net_stats.bytes_on_wire
        metrics.transfers = net_stats.transfers
        metrics.fluid_transfers = net_stats.fluid_transfers
        metrics.des_transfers = net_stats.des_transfers
        metrics.local_deliveries = net_stats.local_deliveries
        metrics.passive_measurements = mon_stats.passive_measurements
        metrics.piggyback_entries_merged = mon_stats.piggyback_entries_merged
        metrics.retransmissions = net_stats.retransmissions
        metrics.dropped_bytes = net_stats.dropped_bytes
        metrics.abandoned_messages = net_stats.abandoned_messages
        metrics.probe_timeouts = mon_stats.probe_timeouts
        if self.faults is not None:
            metrics.host_downtime_seconds = self.faults.total_downtime
        return metrics
