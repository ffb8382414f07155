"""Build and run one complete simulation from a :class:`SimulationSpec`."""

from __future__ import annotations

from repro.app.images import ImageWorkload
from repro.dataflow.cost import CostModel, expected_output_sizes
from repro.dataflow.placement import Placement
from repro.dataflow.tree import (
    CombinationTree,
    complete_binary_tree,
    left_deep_tree,
)
from repro.engine.actors import ClientActor, OperatorActor, ServerActor
from repro.engine.config import Algorithm, SimulationSpec
from repro.engine.controllers import GlobalController, LocalController
from repro.engine.metrics import RunMetrics
from repro.engine.runtime import Runtime
from repro.faults import FaultInjector
from repro.monitor.system import MonitoringSystem
from repro.net.host import Host
from repro.net.link import Link
from repro.net.network import Network
from repro.obs.events import RUN_END, RUN_META
from repro.obs.tracer import ensure_tracer
from repro.placement import planner_for
from repro.placement.download_all import download_all_placement
from repro.sim import Environment

import numpy as np


def derive_server_replicas(
    spec: SimulationSpec, server_hosts_map: dict[str, str]
) -> dict[str, tuple[str, ...]]:
    """Replica hosts per server (primary first), from the workload seed.

    With ``replication_factor == 1`` every server has just its primary
    host (the paper's assumption 3).
    """
    replicas: dict[str, tuple[str, ...]] = {}
    rng = np.random.default_rng((spec.workload_seed, 7351))
    for server_id, primary in sorted(server_hosts_map.items()):
        others = [h for h in spec.all_hosts if h != primary]
        extra_count = min(spec.replication_factor - 1, len(others))
        if extra_count > 0:
            picks = rng.choice(len(others), size=extra_count, replace=False)
            replicas[server_id] = (primary, *(others[i] for i in sorted(picks)))
        else:
            replicas[server_id] = (primary,)
    return replicas


def build_tree(spec: SimulationSpec) -> CombinationTree:
    """The combination tree requested by the spec."""
    if spec.tree_shape == "binary":
        return complete_binary_tree(spec.num_servers)
    return left_deep_tree(spec.num_servers)


def build_query(
    spec: SimulationSpec,
    env: Environment,
    network: Network,
    monitoring: MonitoringSystem,
    tracer=None,
    namespace: str = "",
    query_id: str | None = None,
    planner_wrapper=None,
) -> Runtime:
    """Assemble one query's tree, placement, actors and controllers.

    The network/monitoring substrate is supplied by the caller, so several
    queries can share it (:mod:`repro.workload`).  ``namespace`` prefixes
    this query's actor ids at the network boundary; ``query_id`` tags its
    messages and trace events.  ``planner_wrapper`` — a callable
    ``(planner, stage) -> Planner`` with stage ``"initial"`` or
    ``"controller"`` — lets a fleet coordinator interpose on every
    planning opportunity (:mod:`repro.fleet`); None keeps the planners
    bare.  With the defaults (empty namespace, no query id, no wrapper)
    the constructed query is byte-identical to what
    :func:`build_simulation` always built, which the single-query identity
    test pins.
    """
    tracer = ensure_tracer(tracer)
    tree = build_tree(spec)
    workload = ImageWorkload.generate(
        spec.num_servers,
        spec.images_per_server,
        spec.mean_image_size,
        spec.image_rel_std,
        seed=spec.workload_seed,
    )
    sizes = expected_output_sizes(
        tree, spec.mean_image_size, spec.image_rel_std, combiner=spec.compose
    )
    cost_model = CostModel(
        tree,
        sizes,
        startup_cost=spec.startup_cost,
        disk_rate=spec.disk_rate,
        combiner=spec.compose,
    )

    server_hosts_map = {
        server.node_id: spec.server_hosts[index]
        for index, server in enumerate(tree.servers())
    }
    server_replicas = derive_server_replicas(spec, server_hosts_map)
    initial_result = _initial_placement(
        spec,
        tree,
        cost_model,
        monitoring,
        server_hosts_map,
        server_replicas,
        tracer=tracer,
        planner_wrapper=planner_wrapper,
    )

    runtime = Runtime(
        env,
        network,
        monitoring,
        tree,
        workload,
        spec,
        initial_result.placement,
        server_replicas=server_replicas,
        tracer=tracer,
        namespace=namespace,
        query_id=query_id,
    )
    runtime.metrics.note_plan(initial_result)

    client_actor = ClientActor(runtime, tree.client)
    runtime.client_actor = client_actor
    env.process(client_actor.run(), name=f"{namespace}client")
    for index, server in enumerate(tree.servers()):
        actor = ServerActor(runtime, server, index)
        env.process(actor.run(), name=f"{namespace}{server.node_id}")
    for op in tree.operators():
        actor = OperatorActor(runtime, op)
        env.process(actor.run(), name=f"{namespace}{op.node_id}")

    if spec.algorithm is Algorithm.GLOBAL:
        planner = planner_for(
            Algorithm.GLOBAL,
            tree,
            list(spec.all_hosts),
            cost_model,
            server_replicas=server_replicas,
        )
        if planner_wrapper is not None:
            planner = planner_wrapper(planner, "controller")
        controller = GlobalController(runtime, planner, client_actor)
        env.process(controller.run(), name=f"{namespace}global-controller")
    elif spec.algorithm is Algorithm.LOCAL:
        planner = planner_for(
            Algorithm.LOCAL,
            tree,
            list(spec.all_hosts),
            cost_model,
            extra_candidates=spec.local_extra_candidates,
        )
        if planner_wrapper is not None:
            planner = planner_wrapper(planner, "controller")
        LocalController(runtime, planner).start()

    return runtime


def build_simulation(
    spec: SimulationSpec, tracer=None
) -> tuple[Environment, Runtime]:
    """Assemble network, monitoring, tree, placement, actors, controllers.

    ``tracer`` (a :class:`repro.obs.Tracer`) turns on run tracing across
    every subsystem; the default no-op tracer leaves the hot paths
    untouched.
    """
    tracer = ensure_tracer(tracer)
    env = Environment()
    if tracer.enabled:
        env.trace_hook = tracer.kernel_hook
    network = Network(env, tracer=tracer)
    for host_name in spec.all_hosts:
        host = Host(
            env,
            host_name,
            disk_rate=spec.disk_rate,
            nic_capacity=spec.nic_capacity,
        )
        network.add_host(host)
    hosts = list(spec.all_hosts)
    for i, a in enumerate(hosts):
        for b in hosts[i + 1 :]:
            key = (a, b) if a < b else (b, a)
            # Prime the trace's byte prefix sums up front: library-cached
            # noon segments arrive warm already, and ad-hoc traces pay the
            # cumsum here, outside the simulated transfers.
            trace = spec.link_traces[key].ensure_cum()
            network.add_link(
                Link(a, b, trace, startup_cost=spec.startup_cost)
            )

    monitoring = MonitoringSystem(network, spec.monitoring, tracer=tracer)
    if spec.seed_initial_snapshot:
        monitoring.seed_snapshot(0.0)

    runtime = build_query(spec, env, network, monitoring, tracer=tracer)

    if spec.faults is not None and not spec.faults.is_empty():
        spec.faults.validate_hosts(network.hosts.keys())
        injector = FaultInjector(spec.faults, env, tracer=tracer)
        network.install_faults(injector)
        monitoring.faults = injector
        runtime.faults = injector
        injector.start()

    return env, runtime


def _initial_placement(
    spec: SimulationSpec,
    tree: CombinationTree,
    cost_model: CostModel,
    monitoring: MonitoringSystem,
    server_hosts_map: dict[str, str],
    server_replicas: "dict[str, tuple[str, ...]] | None" = None,
    tracer=None,
    planner_wrapper=None,
):
    """Initial operator placement per algorithm (§2), as a PlanResult.

    download-all starts (and stays) with every operator at the client; the
    other three algorithms start from a one-shot plan computed with the
    information available at t=0.
    """
    download = download_all_placement(tree, server_hosts_map, spec.client_host)

    def estimator(a: str, b: str) -> float:
        return monitoring.estimate(spec.client_host, a, b, 0.0).bandwidth

    # Every estimate() call can emit a traced MONITOR_ESTIMATE event, so
    # this live view is not snapshot-safe: the vectorized engine would
    # collapse the per-candidate call sequence into one matrix fill and
    # change the event stream.  Marking it keeps the t=0 plan on the
    # scalar path.
    estimator.snapshot_safe = False

    initial_algorithm = (
        Algorithm.DOWNLOAD_ALL
        if spec.algorithm is Algorithm.DOWNLOAD_ALL
        else Algorithm.ONE_SHOT
    )
    planner = planner_for(
        initial_algorithm,
        tree,
        list(spec.all_hosts),
        cost_model,
        server_replicas=server_replicas,
    )
    if planner_wrapper is not None:
        planner = planner_wrapper(planner, "initial")
    return planner.plan(estimator, download, tracer=tracer)


def run_simulation(spec: SimulationSpec, tracer=None) -> RunMetrics:
    """Run one experiment to completion and return its metrics.

    Pass a :class:`repro.obs.Tracer` to record the run's event stream
    (export it with :mod:`repro.obs.exporters` afterwards).
    """
    tracer = ensure_tracer(tracer)
    if tracer.enabled:
        tracer.meta.update(
            algorithm=spec.algorithm.value,
            num_servers=spec.num_servers,
            images=spec.images_per_server,
        )
        tracer.emit(
            RUN_META,
            0.0,
            algorithm=spec.algorithm.value,
            num_servers=spec.num_servers,
            images=spec.images_per_server,
            tree_shape=spec.tree_shape,
            hosts=list(spec.all_hosts),
        )
    env, runtime = build_simulation(spec, tracer=tracer)
    stop = env.any_of([runtime.done, env.timeout(spec.max_sim_time)])
    env.run(until=stop)
    metrics = runtime.finalize_metrics(truncated=not runtime.finished)
    metrics.kernel_events = env.events_processed
    if tracer.enabled:
        tracer.emit(
            RUN_END,
            env.now,
            truncated=metrics.truncated,
            images_delivered=len(metrics.arrival_times),
            completion_time=metrics.completion_time,
        )
    return metrics
