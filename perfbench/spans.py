"""Layer spans recorded from the benchmark's side of each layer boundary.

The traced run wraps the callables listed in :data:`TARGETS` (public
functions and methods of each ``src/repro`` package, plus the few
private callbacks the kernel calls directly) and the process generators
listed in :data:`GENERATORS`.  Each wrapped call records one span: its
name, start, end, parent span and operation id.  A process generator is
handed to the kernel inside a :class:`TimedGenerator`, which records one
span per resume (``send`` or ``throw``) and passes values, exceptions
and interrupts through unchanged; the kernel's own dispatch therefore
stays in ``sim`` and the actor bodies land in ``engine``.

Spans stay in memory (flat arrays) until :meth:`SpanRecorder.fold` runs
at the end of the run.  A span's self time is its duration minus the
durations of its direct children; self time is summed per layer.  Each
operation is a root span of layer ``bench``, so the layer self times
plus the roots' self time add up to the operations' time exactly.

Nothing under ``src/`` changes: wrappers are installed at run time, and
only in the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

_HERE = str(Path(__file__).resolve().parent)

#: (module, qualified name, layer) of every wrapped plain callable.  The
#: layer is the ``src/repro`` package that defines it.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.core", "Environment.run", "sim"),
    ("repro.net.network", "Network.send", "net"),
    ("repro.net.network", "Network.post", "net"),
    ("repro.net.network", "Network.move_actor", "net"),
    ("repro.net.network", "Network.bandwidth_at", "net"),
    ("repro.net.network", "Network.mean_bandwidth", "net"),
    # The fluid fast path's completion callback, called by the kernel.
    ("repro.net.network", "Network._finish_transfer", "net"),
    ("repro.traces.trace", "BandwidthTrace.transfer_time", "traces"),
    ("repro.traces.trace", "BandwidthTrace.bytes_between", "traces"),
    ("repro.traces.trace", "BandwidthTrace.mean_rate", "traces"),
    ("repro.traces.study", "TraceLibrary.sample_noon_segments", "traces"),
    ("repro.traces.study", "InternetStudy.run", "traces"),
    ("repro.monitor.system", "MonitoringSystem.estimate", "monitor"),
    ("repro.monitor.system", "MonitoringSystem.seed_snapshot", "monitor"),
    ("repro.monitor.system", "MonitoringSystem.forecast_for", "monitor"),
    ("repro.monitor.piggyback", "encode_piggyback", "monitor"),
    ("repro.monitor.piggyback", "decode_piggyback", "monitor"),
    ("repro.engine.simulation", "run_simulation", "engine"),
    ("repro.engine.simulation", "build_simulation", "engine"),
    ("repro.engine.simulation", "build_query", "engine"),
    ("repro.engine.runtime", "Runtime.send", "engine"),
    ("repro.engine.runtime", "Runtime.ingest_vectors", "engine"),
    ("repro.engine.runtime", "Runtime.estimator_for", "engine"),
    ("repro.engine.runtime", "Runtime.snapshot_estimator", "engine"),
    ("repro.engine.runtime", "Runtime.finalize_metrics", "engine"),
    ("repro.engine.controllers", "LocalController.start", "engine"),
    ("repro.engine.metrics", "RunMetrics.from_trace", "engine"),
    ("repro.engine.metrics", "RunMetrics.summary", "engine"),
    ("repro.app.images", "ImageWorkload.generate", "app"),
    ("repro.placement", "planner_for", "placement"),
    ("repro.placement.one_shot", "OneShotPlanner.plan", "placement"),
    ("repro.placement.global_planner", "GlobalPlanner.plan", "placement"),
    ("repro.placement.local_rules", "LocalRulesPlanner.plan", "placement"),
    ("repro.placement.local_rules", "LocalRulesPlanner.decide", "placement"),
    ("repro.placement.download_all", "DownloadAllPlanner.plan", "placement"),
    ("repro.dataflow.critical", "critical_path", "dataflow"),
    ("repro.dataflow.critical", "placement_cost", "dataflow"),
    ("repro.dataflow.critical", "BatchMoveEvaluator.price_moves", "dataflow"),
    ("repro.dataflow.critical", "BatchMoveEvaluator.apply_move", "dataflow"),
    ("repro.dataflow.critical", "SingleMoveEvaluator.cost_of_move", "dataflow"),
    ("repro.fleet.coordinator", "FleetCoordinator.wrapper_for", "fleet"),
    ("repro.fleet.coordinator", "FleetCoordinator.query_launched", "fleet"),
    ("repro.fleet.coordinator", "FleetCoordinator.query_done", "fleet"),
    ("repro.fleet.coordinator", "FleetCoordinator.residual_estimator", "fleet"),
    ("repro.fleet.coordinator", "FleetCoordinator.arbitrate", "fleet"),
    ("repro.fleet.coordinator", "FleetCoordinator.arbitrate_operator_move", "fleet"),
    ("repro.fleet.coordinator", "FleetCoordinator.link_claims", "fleet"),
    ("repro.fleet.planner", "FleetPlanner.plan", "fleet"),
    ("repro.fleet.planner", "FleetPlanner.decide", "fleet"),
    ("repro.faults.injector", "FaultInjector.host_down", "faults"),
    ("repro.faults.injector", "FaultInjector.link_blocked", "faults"),
    ("repro.faults.injector", "FaultInjector.has_loss", "faults"),
    ("repro.faults.injector", "FaultInjector.next_boundary", "faults"),
    ("repro.faults.injector", "FaultInjector.drop_message", "faults"),
    ("repro.faults.injector", "FaultInjector.probe_blackout", "faults"),
    ("repro.faults.injector", "FaultInjector.start", "faults"),
    ("repro.workload.engine", "run_workload", "workload"),
    ("repro.workload.engine", "WorkloadEngine.run", "workload"),
    ("repro.workload.engine", "build_schedule", "workload"),
    ("repro.workload.sink", "ExactFleetMetrics.query_started", "workload"),
    ("repro.workload.sink", "ExactFleetMetrics.query_finished", "workload"),
    ("repro.workload.sink", "ExactFleetMetrics.link_transfer", "workload"),
    ("repro.workload.sink", "ExactFleetMetrics.summary", "workload"),
    ("repro.workload.sink", "_FleetMetricsBase.observe", "workload"),
    ("repro.workload.sink", "note_slo", "workload"),
    ("repro.workload.sink", "QueryStats.from_metrics", "workload"),
    ("repro.obs.tracer", "Tracer.emit", "obs"),
    ("repro.obs.tracer", "Tracer.kernel_hook", "obs"),
    ("repro.obs.tracer", "ScopedTracer.emit", "obs"),
    ("repro.obs.exporters", "write_jsonl", "obs"),
    ("repro.obs.exporters", "read_jsonl", "obs"),
    ("repro.obs.summary", "summarize_records", "obs"),
    ("repro.obs.summary", "replay_aggregates", "obs"),
    ("repro.experiments.runner", "run_configuration", "experiments"),
    ("repro.experiments.config", "ExperimentConfig.trace_library", "experiments"),
    ("repro.experiments.config", "build_spec", "experiments"),
    ("repro.experiments.config", "build_spec_from_config", "experiments"),
    ("repro.experiments.config", "sample_config", "experiments"),
    ("repro.experiments.config", "make_configuration", "experiments"),
)

#: (module, qualified name, layer, group) of every process generator the
#: kernel resumes.  Group ``actor`` is reported as
#: ``engine.actor_self_share``: the actor and controller bodies.
GENERATORS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.engine.actors", "ServerActor.run", "engine", "actor"),
    ("repro.engine.actors", "OperatorActor.run", "engine", "actor"),
    ("repro.engine.actors", "ClientActor.run", "engine", "actor"),
    ("repro.engine.controllers", "GlobalController.run", "engine", "actor"),
    ("repro.engine.controllers", "LocalController._epoch_process", "engine", "actor"),
    ("repro.engine.runtime", "Runtime.remote_probe", "engine", "probe"),
    ("repro.net.network", "Network._run_transfer", "net", "transfer"),
    ("repro.faults.injector", "FaultInjector._timeline", "faults", "timeline"),
)

#: Every layer a span can belong to, in report order; ``bench`` is the
#: operations' root.
LAYERS = tuple(
    dict.fromkeys(
        [layer for _, _, layer in TARGETS] + [layer for _, _, layer, _ in GENERATORS]
    )
)

#: Span groups reported as phases: the summed duration (not self time)
#: and the number of the outermost spans of any of these names.
PHASES = {
    "engine.build": ("build_simulation", "build_query"),
    # The planners themselves; a fleet planner delegates to one of them.
    "placement.plan": (
        "OneShotPlanner.plan", "GlobalPlanner.plan", "LocalRulesPlanner.plan",
        "LocalRulesPlanner.decide", "DownloadAllPlanner.plan",
    ),
    "workload.sink": (
        "ExactFleetMetrics.query_started", "ExactFleetMetrics.query_finished",
        "ExactFleetMetrics.link_transfer", "ExactFleetMetrics.summary",
        "_FleetMetricsBase.observe", "note_slo",
    ),
    "experiments.build_spec": ("build_spec",),
}
_PHASE_OF = {name: phase for phase, members in PHASES.items() for name in members}


class Profile:
    """Folded spans and counts of the traced operations."""

    def __init__(self) -> None:
        self.ops = 0
        self.op_time = 0.0
        self.self_time: Counter = Counter()
        #: Self time of the generator groups (a part of their layer's).
        self.group_self: Counter = Counter()
        self.phase_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.run_metrics: list = []


class SpanRecorder:
    """Installs the wrappers; keeps every span until :meth:`fold`."""

    def __init__(self) -> None:
        #: Per span id: name, layer and generator group ("" for plain).
        self.names: list[str] = ["op"]
        self.layers: list[str] = ["bench"]
        self.groups: list[str] = [""]
        #: The spans, one entry per span in start order.
        self.span_id = array("i")
        self.parent = array("q")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op = -1
        #: Spans are recorded only between begin_op and end_op.
        self.active = False
        self.missing: list[str] = []
        self.profile = Profile()
        self._envs: dict = {}

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; absent targets are listed in ``missing``."""
        for module_name, qualname, layer in TARGETS:
            self._install_one(module_name, qualname, layer, "")
        for module_name, qualname, layer, group in GENERATORS:
            self._install_one(module_name, qualname, layer, group)

    def _install_one(self, module_name, qualname, layer, group) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = (
            owner.__dict__.get(attr)
            if isinstance(owner, type)
            else getattr(owner, attr, None)
        )
        if raw is None:
            self.missing.append(f"{module_name}.{qualname}")
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        if inspect.isgeneratorfunction(fn) != bool(group):
            self.missing.append(f"{module_name}.{qualname} (generator kind changed)")
            return
        span_id = len(self.names)
        self.names.append(qualname)
        self.layers.append(layer)
        self.groups.append(group)
        wrapped = (self._wrap_generator if group else self._wrap)(fn, span_id)
        if isinstance(owner, type):
            setattr(owner, attr, kind(wrapped) if kind else wrapped)
        else:
            _rebind(fn, wrapped)

    def _open(self, span_id: int) -> int:
        index = len(self.start)
        self.span_id.append(span_id)
        self.parent.append(self.current)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self.current = index
        self.start.append(perf_counter())
        return index

    def _wrap(self, fn, span_id: int):
        after = _AFTER.get(self.names[span_id])
        rec = self
        # _open inlined: this wrapper runs on every call of the hottest
        # boundaries, and its cost lands in the caller's self time.
        add_id, add_parent = self.span_id.append, self.parent.append
        add_op, add_end = self.op_id.append, self.end.append
        add_start, starts = self.start.append, self.start

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            parent = rec.current
            index = len(starts)
            add_id(span_id)
            add_parent(parent)
            add_op(rec.op)
            add_end(0.0)
            rec.current = index
            add_start(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[index] = perf_counter()
                rec.current = parent
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap_generator(self, fn, span_id: int):
        rec = self

        def wrapper(*args, **kwargs):
            generator = fn(*args, **kwargs)
            if not rec.active:
                return generator
            return TimedGenerator(generator, rec, span_id)

        return functools.update_wrapper(wrapper, fn)

    # -- per operation -----------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op
        self.current = -1
        self.current = self._open(0)
        self.active = True

    def end_op(self) -> None:
        """Close the operation's root span."""
        self.active = False
        root = self.current
        self.end[root] = perf_counter()
        self.current = -1
        self.profile.ops += 1
        self.profile.counts["sim.events"] += sum(
            env.events_processed for env in self._envs.values()
        )
        self._envs = {}

    # -- folding -------------------------------------------------------------
    def fold(self) -> Profile:
        """Self time per layer, phases and call counts over every span."""
        profile = self.profile
        names, layers, groups = self.names, self.layers, self.groups
        span_ids, parents = self.span_id, self.parent
        starts, ends = self.start, self.end
        n = len(starts)
        child_time = [0.0] * n
        for index in range(n):
            parent = parents[index]
            if parent >= 0:
                child_time[parent] += ends[index] - starts[index]
        # phase_of[i]: the phase an ancestor-or-self span belongs to.
        phase_of: list = [None] * n
        for index in range(n):
            sid = span_ids[index]
            duration = ends[index] - starts[index]
            own = duration - child_time[index]
            profile.self_time[layers[sid]] += own
            if groups[sid]:
                profile.group_self[groups[sid]] += own
            name = names[sid]
            profile.calls[name] += 1
            parent = parents[index]
            inherited = phase_of[parent] if parent >= 0 else None
            phase = _PHASE_OF.get(name)
            if phase is not None and phase != inherited:
                profile.phase_time[phase] += duration
                profile.counts[f"{phase}_calls"] += 1
            phase_of[index] = phase or inherited
            if sid == 0:
                profile.op_time += duration
        return profile


class TimedGenerator:
    """A process generator whose every resume is one span.

    The kernel drives it exactly like the generator it wraps: ``send``
    and ``throw`` (which is how an interrupt arrives) go straight
    through, and ``StopIteration`` and every other exception propagate
    unchanged.  Generators the wrapped one delegates to with
    ``yield from`` run inside its resumes.
    """

    __slots__ = ("_generator", "_rec", "_span_id", "__name__")

    def __init__(self, generator, rec: SpanRecorder, span_id: int) -> None:
        self._generator = generator
        self._rec = rec
        self._span_id = span_id
        self.__name__ = getattr(generator, "__name__", "process")

    def _resume(self, method, value):
        rec = self._rec
        if not rec.active:
            return method(value)
        parent = rec.current
        index = rec._open(self._span_id)
        try:
            return method(value)
        finally:
            rec.end[index] = perf_counter()
            rec.current = parent

    def send(self, value):
        return self._resume(self._generator.send, value)

    def throw(self, exc):
        return self._resume(self._generator.throw, exc)

    def __next__(self):
        return self.send(None)

    def __iter__(self):
        return self

    def close(self) -> None:
        self._generator.close()


def _rebind(original, wrapped) -> None:
    """Point every reference a ``repro`` or benchmark module holds at the
    wrapper (``from x import f`` copies the function into the importer)."""
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None) or ""
        if not (
            name == "repro"
            or name.startswith("repro.")
            or path.startswith(_HERE)
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _after_run(rec, args, kwargs, result) -> None:
    env = args[0]
    rec._envs[id(env)] = env


def _after_decode(rec, args, kwargs, result) -> None:
    piggyback = args[1] if len(args) > 1 else kwargs["piggyback"]
    counts = rec.profile.counts
    counts["monitor.piggyback_offered"] += len(piggyback.get("entries", ()))
    counts["monitor.piggyback_merged"] += result


def _after_finalize(rec, args, kwargs, result) -> None:
    rec.profile.run_metrics.append(result)


_AFTER = {
    "Environment.run": _after_run,
    "decode_piggyback": _after_decode,
    "Runtime.finalize_metrics": _after_finalize,
}
