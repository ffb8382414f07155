"""The workload engine: N concurrent queries, one shared network.

:class:`WorkloadEngine` materializes a :class:`~repro.workload.spec.
WorkloadSpec`: it builds one :class:`~repro.net.network.Network`,
:class:`~repro.monitor.system.MonitoringSystem` and (optionally) one
:class:`~repro.faults.FaultInjector`, then launches each scheduled query
as an independent :class:`~repro.engine.runtime.Runtime` on top of them
via :func:`repro.engine.simulation.build_query`.  Queries contend for
the same NICs, links and fault timeline — which is the entire point —
while their actor ids are kept apart by per-query namespaces and their
metrics/trace events by ``query_id`` tags.

Single-query workloads run with an empty namespace and therefore follow
exactly the code path of :func:`~repro.engine.simulation.run_simulation`;
the identity test pins bit-equality of metrics and trace events (modulo
the ``query_id`` tag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.engine.config import SimulationSpec
from repro.engine.metrics import RunMetrics
from repro.engine.runtime import Runtime
from repro.engine.simulation import build_query
from repro.faults import FaultInjector
from repro.fleet import FleetCoordinator
from repro.monitor.system import MonitoringSystem
from repro.net.host import Host
from repro.net.link import Link
from repro.net.network import Network
from repro.obs.events import RUN_END, RUN_META
from repro.obs.tracer import ScopedTracer, ensure_tracer
from repro.sim import Environment
from repro.workload.arrivals import (
    ClosedLoop,
    OpenLoop,
    arrival_rng,
    open_loop_times,
    think_seconds,
)
from repro.workload.overload import OverloadController
from repro.workload.sink import MetricsSink, QueryStats, note_slo
from repro.workload.spec import QueryClass, WorkloadSpec, query_id_for


@dataclass
class ScheduledQuery:
    """One slot of the workload schedule, before it launches."""

    query_id: str
    client_index: int
    ordinal: int
    qclass: QueryClass
    spec: SimulationSpec
    #: 0 for schedule slots; retries of deadline-aborted queries count
    #: up from 1 (their ids carry a ``.r{attempt}`` suffix).
    attempt: int = 0
    #: True when an open circuit breaker rerouted this query to the
    #: policy's degraded algorithm.
    degraded: bool = False


@dataclass
class QueryPlan:
    """A launched query: its runtime plus launch bookkeeping."""

    scheduled: ScheduledQuery
    #: ``None`` once the streaming path has finalized the query and
    #: released its runtime.
    runtime: Optional[Runtime]
    issued_at: float
    #: Set by the overload controller's deadline watchdog; the query
    #: finalizes truncated even though its ``done`` event settled.
    deadline_aborted: bool = False

    @property
    def query_id(self) -> str:
        return self.scheduled.query_id


@dataclass
class QueryResult:
    """One finished (or truncated) query."""

    query_id: str
    client_index: int
    ordinal: int
    class_name: str
    algorithm: str
    issued_at: float
    metrics: RunMetrics

    @property
    def latency(self) -> Optional[float]:
        if self.metrics.truncated or not self.metrics.arrival_times:
            return None
        return self.metrics.completion_time - self.issued_at


@dataclass
class WorkloadResult:
    """Everything one workload run produced.

    ``queries`` is empty when the streaming metrics path ran (per-query
    results are not materialized at scale); ``metrics`` is the
    :class:`~repro.workload.sink.MetricsSink` that accumulated the run,
    kept so sharded runs can merge sinks before summarizing.
    """

    spec: WorkloadSpec
    elapsed: float
    queries: list[QueryResult]
    fleet: dict[str, Any]
    metrics: Optional[MetricsSink] = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form: the fleet summary (it embeds the
        per-query summaries)."""
        return self.fleet


def build_schedule(spec: WorkloadSpec) -> list[ScheduledQuery]:
    """Every (client, ordinal) slot of the workload, in client order.

    A spec with a ``client_subset`` (one shard of a larger population)
    schedules only those clients, with identical per-client seeds and
    query ids to the full run.
    """
    schedule: list[ScheduledQuery] = []
    for client_index in spec.client_indices:
        mix = spec.mix_for(client_index)
        for ordinal, qclass in enumerate(mix):
            schedule.append(
                ScheduledQuery(
                    query_id=query_id_for(client_index, ordinal),
                    client_index=client_index,
                    ordinal=ordinal,
                    qclass=qclass,
                    spec=spec.query_spec(qclass, client_index, ordinal),
                )
            )
    return schedule


class WorkloadEngine:
    """Runs one :class:`WorkloadSpec` to completion."""

    def __init__(self, spec: WorkloadSpec, tracer=None) -> None:
        self.spec = spec
        self.tracer = ensure_tracer(tracer)
        self._injector: Optional[FaultInjector] = None

    # -- substrate -----------------------------------------------------
    def _build_substrate(
        self, env: Environment
    ) -> tuple[Network, MonitoringSystem]:
        spec = self.spec
        tracer = self.tracer
        network = Network(env, tracer=tracer)
        for host_name in spec.all_hosts:
            host = Host(
                env,
                host_name,
                disk_rate=spec.disk_rate,
                nic_capacity=spec.nic_capacity,
            )
            network.add_host(host)
        links = spec.resolve_links()
        hosts = list(spec.all_hosts)
        for i, a in enumerate(hosts):
            for b in hosts[i + 1 :]:
                key = (a, b) if a < b else (b, a)
                network.add_link(
                    Link(a, b, links[key], startup_cost=spec.startup_cost)
                )
        monitoring = MonitoringSystem(network, spec.monitoring, tracer=tracer)
        if spec.seed_initial_snapshot:
            monitoring.seed_snapshot(0.0)
        return network, monitoring

    def _install_faults(
        self,
        env: Environment,
        network: Network,
        monitoring: MonitoringSystem,
        launched: list[QueryPlan],
    ) -> None:
        plan = self.spec.fault_plan
        if plan is None or plan.is_empty():
            return
        plan.validate_hosts(network.hosts.keys())
        injector = FaultInjector(plan, env, tracer=self.tracer)
        network.install_faults(injector)
        monitoring.faults = injector
        for query_plan in launched:
            if query_plan.runtime is not None:
                query_plan.runtime.faults = injector
        self._injector = injector
        injector.start()

    # -- the run -------------------------------------------------------
    def run(self) -> WorkloadResult:
        spec = self.spec
        tracer = self.tracer
        schedule = build_schedule(spec)
        sink = spec.build_metrics()
        streaming = sink.mode == "streaming"
        if not schedule:
            return WorkloadResult(
                spec=spec,
                elapsed=0.0,
                queries=[],
                fleet=sink.summary(0.0, scheduled=0),
                metrics=sink,
            )

        env = Environment()
        if tracer.enabled:
            env.trace_hook = tracer.kernel_hook
            tracer.meta.update(
                workload=True,
                num_clients=spec.num_clients,
                queries_per_client=spec.queries_per_client,
                scheduled_queries=len(schedule),
            )
        network, monitoring = self._build_substrate(env)
        network.observers.append(sink.observe)

        # Fleet-aware joint planning: one coordinator shared by every
        # query, consulted at each planning opportunity.  None keeps all
        # planners blind — the bit-identical default path.
        coordinator: Optional[FleetCoordinator] = None
        if spec.fleet_engaged:
            coordinator = FleetCoordinator(
                spec.fleet, sink=sink, clock=lambda: env.now
            )

        # A lone query runs un-namespaced so its execution is
        # bit-identical to run_simulation (see the identity test).
        # Overload protection forces namespacing: retries re-register
        # the same actor ids and must not collide.
        engaged = spec.overload_engaged
        single = len(schedule) == 1 and not engaged
        launched: list[QueryPlan] = []
        all_done = env.event()
        pending = len(schedule)

        def slot_resolved() -> None:
            nonlocal pending
            pending -= 1
            if pending == 0 and not all_done.triggered:
                all_done.succeed(env.now)

        def finalize(plan: QueryPlan, truncated: bool) -> None:
            """Feed one query into the sink and release its runtime.

            The streaming path calls this eagerly from the query's done
            callback, so per-query state (runtime, network/monitor
            accounting slices) is freed as the fleet progresses instead
            of accumulating until the end of the run.
            """
            runtime = plan.runtime
            if runtime is None:
                return
            metrics = runtime.finalize_metrics(truncated=truncated)
            qid = plan.query_id
            if tracer.enabled:
                scoped = ScopedTracer(tracer, query_id=qid)
                scoped.emit(
                    RUN_END,
                    env.now,
                    truncated=metrics.truncated,
                    images_delivered=len(metrics.arrival_times),
                    completion_time=metrics.completion_time,
                )
            stats = QueryStats.from_metrics(
                qid, plan.scheduled.qclass.name, plan.issued_at, metrics
            )
            sink.query_finished(stats)
            note_slo(sink, stats, plan.scheduled.qclass.slo_target)
            plan.runtime = None
            network.query_stats.pop(qid, None)
            monitoring.query_stats.pop(qid, None)

        def note_done(plan: QueryPlan) -> None:
            def _completed(_event) -> None:
                if coordinator is not None:
                    coordinator.query_done(plan.query_id)
                if streaming:
                    finalize(plan, truncated=plan.deadline_aborted)
                if controller is None:
                    slot_resolved()
                else:
                    controller.query_finished(plan)

            plan.runtime.done.callbacks.append(_completed)

        def launch(scheduled: ScheduledQuery) -> QueryPlan:
            qid = scheduled.query_id
            namespace = "" if single else qid + "/"
            scoped = ScopedTracer(tracer, query_id=qid)
            qspec = scheduled.spec
            if scheduled.degraded:
                sink.resilience_event("degraded", scheduled.qclass.name)
            if scoped.enabled:
                extra = (
                    {} if single else {"query_class": scheduled.qclass.name}
                )
                if scheduled.qclass.slo_target is not None:
                    extra["slo"] = scheduled.qclass.slo_target
                if scheduled.degraded:
                    extra["degraded"] = True
                scoped.emit(
                    RUN_META,
                    env.now,
                    algorithm=qspec.algorithm.value,
                    num_servers=qspec.num_servers,
                    images=qspec.images_per_server,
                    tree_shape=qspec.tree_shape,
                    hosts=list(qspec.all_hosts),
                    **extra,
                )
            runtime = build_query(
                qspec,
                env,
                network,
                monitoring,
                tracer=scoped,
                namespace=namespace,
                query_id=qid,
                planner_wrapper=(
                    coordinator.wrapper_for(qid)
                    if coordinator is not None
                    else None
                ),
            )
            if coordinator is not None:
                coordinator.query_launched(
                    qid,
                    runtime,
                    class_name=scheduled.qclass.name,
                    slo=scheduled.qclass.slo_target,
                )
            if self._injector is not None:
                runtime.faults = self._injector
            plan = QueryPlan(
                scheduled=scheduled, runtime=runtime, issued_at=env.now
            )
            sink.query_started(qid, scheduled.qclass.name, env.now)
            note_done(plan)
            launched.append(plan)
            return plan

        controller: Optional[OverloadController] = None
        if engaged:
            controller = OverloadController(
                env,
                spec.overload_policy,
                spec.seed,
                tracer,
                sink,
                launch=launch,
                slot_resolved=slot_resolved,
            )

        def submit(scheduled: ScheduledQuery):
            """Route one slot: through admission when engaged, else a
            direct launch.  Returns what sessions wait on — the
            submission (completion event) or the plan (runtime.done)."""
            if controller is None:
                return launch(scheduled)
            return controller.submit(scheduled)

        # Group the schedule per client and split eager t=0 launches
        # (built before the fault timeline starts, mirroring
        # build_simulation's construction order) from deferred ones.
        by_client: dict[int, list[ScheduledQuery]] = {}
        for scheduled in schedule:
            by_client.setdefault(scheduled.client_index, []).append(scheduled)

        sessions: list[tuple[int, Any, list[ScheduledQuery]]] = []
        spawner_jobs: list[tuple[int, list[tuple[float, ScheduledQuery]]]] = []
        if isinstance(spec.arrivals, ClosedLoop):
            for client_index in sorted(by_client):
                slots = by_client[client_index]
                first = submit(slots[0])
                if len(slots) > 1:
                    sessions.append((client_index, first, slots[1:]))
        else:
            assert isinstance(spec.arrivals, OpenLoop)
            for client_index in sorted(by_client):
                slots = by_client[client_index]
                rng = arrival_rng(spec.seed, client_index)
                times = open_loop_times(spec.arrivals, len(slots), rng)
                deferred: list[tuple[float, ScheduledQuery]] = []
                for at, scheduled in zip(times, slots):
                    if at == 0.0:
                        submit(scheduled)
                    else:
                        deferred.append((at, scheduled))
                if deferred:
                    spawner_jobs.append((client_index, deferred))

        self._install_faults(env, network, monitoring, launched)
        if controller is not None:
            controller.injector = self._injector

        def done_event_of(previous):
            """What a closed-loop session waits on before its next slot."""
            if controller is None:
                return previous.runtime.done
            return previous.completion

        def closed_session(client_index, first, slots):
            rng = arrival_rng(spec.seed, client_index)
            previous = first
            for scheduled in slots:
                yield done_event_of(previous)
                think = think_seconds(spec.arrivals, rng)
                if think > 0:
                    yield env.timeout(think)
                previous = submit(scheduled)

        def open_spawner(deferred):
            for at, scheduled in deferred:
                if at > env.now:
                    yield env.timeout(at - env.now)
                submit(scheduled)

        for client_index, first_plan, slots in sessions:
            env.process(
                closed_session(client_index, first_plan, slots),
                name=f"wl-client-c{client_index}",
            )
        for client_index, deferred in spawner_jobs:
            env.process(
                open_spawner(deferred), name=f"wl-client-c{client_index}"
            )

        stop = env.any_of([all_done, env.timeout(spec.max_sim_time)])
        env.run(until=stop)

        results: list[QueryResult] = []
        if streaming:
            # Completed queries were finalized eagerly; whatever is left
            # hit the simulation-time wall.
            for plan in launched:
                runtime = plan.runtime
                if runtime is not None:
                    finalize(plan, truncated=not runtime.finished)
        else:
            for plan in launched:
                runtime = plan.runtime
                metrics = runtime.finalize_metrics(
                    truncated=plan.deadline_aborted or not runtime.finished
                )
                if tracer.enabled:
                    scoped = ScopedTracer(tracer, query_id=plan.query_id)
                    scoped.emit(
                        RUN_END,
                        env.now,
                        truncated=metrics.truncated,
                        images_delivered=len(metrics.arrival_times),
                        completion_time=metrics.completion_time,
                    )
                scheduled = plan.scheduled
                results.append(
                    QueryResult(
                        query_id=plan.query_id,
                        client_index=scheduled.client_index,
                        ordinal=scheduled.ordinal,
                        class_name=scheduled.qclass.name,
                        algorithm=scheduled.spec.algorithm.value,
                        issued_at=plan.issued_at,
                        metrics=metrics,
                    )
                )
                stats = QueryStats.from_metrics(
                    plan.query_id,
                    scheduled.qclass.name,
                    plan.issued_at,
                    metrics,
                )
                sink.query_finished(stats)
                note_slo(sink, stats, scheduled.qclass.slo_target)

        fleet = sink.summary(env.now, scheduled=len(schedule))
        return WorkloadResult(
            spec=spec,
            elapsed=env.now,
            queries=results,
            fleet=fleet,
            metrics=sink,
        )


def run_workload(spec: WorkloadSpec, tracer=None) -> WorkloadResult:
    """Run one workload to completion (the one-call entry point)."""
    return WorkloadEngine(spec, tracer=tracer).run()
