"""The benchmark's workloads: what one operation is, and how it is checked.

Each workload builds a fixed list of operations (one *pass*) from its
seed and the trace library it is given.  The benchmark times ``call``
only; ``examine`` and ``verify`` check the outputs outside the timed
calls.  What each workload runs, why, and what it checks is described
once, in ``README.md`` next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any

from repro.engine.config import Algorithm
from repro.engine.metrics import RunMetrics
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.faults import reference_chaos_plan
from repro.obs import Tracer, read_jsonl, summarize_records, write_jsonl
from repro.workload import (
    ClosedLoop,
    FleetPolicy,
    QueryClass,
    WorkloadSpec,
    run_workload,
)

ALGORITHMS = (
    Algorithm.DOWNLOAD_ALL,
    Algorithm.ONE_SHOT,
    Algorithm.LOCAL,
    Algorithm.GLOBAL,
)

#: Seed of the synthetic Internet study every workload draws traces from.
STUDY_SEED = 1998


def derive_seed(*parts: Any) -> int:
    """A 31-bit seed that depends only on ``parts``."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def canonical(value: Any) -> Any:
    """``value`` as plain JSON data with string keys (for the digest)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def canonical_json(value: Any) -> str:
    return json.dumps(canonical(value), sort_keys=True)


@dataclass
class Outcome:
    """What the benchmark keeps of one operation's output."""

    #: The operation's simulated statistics, as canonical JSON.
    summary: str
    #: Simulated completion times (seconds, sim time).
    sim_times: list[float]
    #: Work items attempted and failed (simulations or queries).
    attempted: int
    failed: int
    #: Failed checks that make the run incorrect.
    problems: list[str] = field(default_factory=list)
    #: Failed checks that match a recorded, still open program defect
    #: (``KNOWN_DEFECTS``): counted in ``failed``, printed, and the run
    #: stays correct.
    defects: list[str] = field(default_factory=list)
    #: Per-layer counts read from the output.
    counts: dict[str, float] = field(default_factory=dict)
    #: Host seconds of each phase inside the operation.
    phases: dict[str, float] = field(default_factory=dict)


def _check_run(label: str, metrics: RunMetrics, images: int) -> list[str]:
    problems = []
    if metrics.truncated:
        problems.append(f"{label}: simulation truncated")
    if len(metrics.arrival_times) != images:
        problems.append(
            f"{label}: {len(metrics.arrival_times)} images reached the "
            f"client, expected {images}"
        )
    return problems


class PaperSweep:
    """The paper's experiment, serially: configurations x algorithms."""

    name = "paper_sweep"
    CONFIGS = 20
    #: Configurations of the traced run (``--trace 1``).
    TRACED_CONFIGS = 8

    def __init__(self, seed: int, library) -> None:
        self.seed = seed
        self.config = ExperimentConfig(study_seed=STUDY_SEED, library=library)
        self.ops = [
            (
                index,
                algorithm,
                derive_seed(seed, index, "workload"),
                derive_seed(seed, index, "control"),
            )
            for index in range(self.CONFIGS)
            for algorithm in ALGORITHMS
        ]
        self.traced_ops = self.TRACED_CONFIGS * len(ALGORITHMS)

    def call(self, op, tracer=None):
        index, algorithm, workload_seed, control_seed = op
        return run_configuration(
            self.config,
            index,
            algorithm,
            tracer=tracer,
            workload_seed=workload_seed,
            control_seed=control_seed,
        )

    def examine(self, op, metrics: RunMetrics) -> Outcome:
        label = f"config {op[0]} {op[1].value}"
        problems = _check_run(label, metrics, self.config.images_per_server)
        return Outcome(
            summary=canonical_json(metrics.summary()),
            sim_times=[metrics.completion_time],
            attempted=1,
            failed=1 if problems else 0,
            problems=problems,
        )

    def verify(self, outcomes: list[Outcome]) -> list[str]:
        """Download-all must have the highest mean completion time."""
        means = {}
        for algorithm in ALGORITHMS:
            times = [
                o.sim_times[0]
                for op, o in zip(self.ops, outcomes)
                if op[1] is algorithm
            ]
            means[algorithm.value] = sum(times) / len(times)
        slowest = max(means, key=means.get)
        if slowest != Algorithm.DOWNLOAD_ALL.value:
            return [f"{slowest} is slower on average than download-all: {means}"]
        return []


class FleetChaos:
    """A closed-loop fleet under chaos with coordinated planning."""

    name = "fleet_chaos"
    FLEETS = 64
    TRACED_FLEETS = 24
    CLIENTS = 3
    QUERIES_PER_CLIENT = 2
    IMAGES = 8
    FLEET_SEED = 17
    CHAOS_SEED = 3

    def __init__(self, seed: int, library) -> None:
        self.seed = seed
        self.library = library
        self.ops = [self._spec(j) for j in range(self.FLEETS)]
        self.traced_ops = self.TRACED_FLEETS

    def _spec(self, j: int) -> WorkloadSpec:
        def qclass(name: str, algorithm: Algorithm) -> QueryClass:
            return QueryClass(
                name=name,
                algorithm=algorithm,
                overrides={
                    "relocation_period": 30.0,
                    "workload_seed": derive_seed(self.seed, j, name),
                    "control_seed": derive_seed(self.seed, j, name, "control"),
                },
            )

        spec = WorkloadSpec(
            classes=(
                qclass("global", Algorithm.GLOBAL),
                qclass("local", Algorithm.LOCAL),
            ),
            num_clients=self.CLIENTS,
            queries_per_client=self.QUERIES_PER_CLIENT,
            arrivals=ClosedLoop(),
            seed=self.FLEET_SEED + j,
            num_servers=8,
            images_per_server=self.IMAGES,
            study_seed=STUDY_SEED,
            library=self.library,
            fleet=FleetPolicy(mode="coordinated"),
        )
        return dataclasses.replace(
            spec,
            fault_plan=reference_chaos_plan(spec.all_hosts, seed=self.CHAOS_SEED),
        )

    def call(self, spec: WorkloadSpec):
        return run_workload(spec)

    def examine(self, spec: WorkloadSpec, result) -> Outcome:
        fleet = result.fleet
        scheduled = fleet["scheduled"]
        completed = fleet["completed"]
        shed = fleet.get("resilience", {}).get("shed", 0)
        problems = []
        if completed + fleet["truncated"] + shed != scheduled:
            problems.append(
                f"fleet seed {spec.seed}: completed {completed} + truncated "
                f"{fleet['truncated']} + shed {shed} != scheduled {scheduled}"
            )
        if scheduled != spec.total_queries:
            problems.append(
                f"fleet seed {spec.seed}: scheduled {scheduled} of "
                f"{spec.total_queries} queries"
            )
        for query in result.queries:
            if not query.metrics.truncated and (
                len(query.metrics.arrival_times) != self.IMAGES
            ):
                problems.append(
                    f"fleet seed {spec.seed}: {query.query_id} delivered "
                    f"{len(query.metrics.arrival_times)} of {self.IMAGES} images"
                )
        block = fleet.get("fleet", {})
        return Outcome(
            summary=canonical_json(fleet),
            sim_times=[q.latency for q in result.queries if q.latency is not None],
            attempted=scheduled,
            failed=(scheduled - completed) + len(problems),
            problems=problems,
            counts={
                "fleet.grants": block.get("grants", 0),
                "fleet.denies": block.get("denies", 0),
                "workload.queries_scheduled": scheduled,
                "workload.queries_completed": completed,
            },
        )

    def verify(self, outcomes: list[Outcome]) -> list[str]:
        return []


#: Program defects a check is known to trip, by the signature the check
#: sees.  See ``record.json`` (``known_defects``) for how to reproduce
#: them; the program fix belongs in ``src/repro``.
KNOWN_DEFECTS = {
    # The live run counts a barrier round when it starts, the replay
    # counts completed barrier.round spans: a run that ends mid-round
    # reads one round higher live than replayed.
    "barrier-round-replay": lambda diff: (
        set(diff) == {"barrier_rounds"}
        and diff["barrier_rounds"][0] == diff["barrier_rounds"][1] + 1
    ),
}


class TracePipeline:
    """Record, export, read back, summarize and replay paper-scale runs."""

    name = "trace_pipeline"
    CONFIGS = 8
    TRACED_CONFIGS = 3

    def __init__(self, seed: int, library, scratch_dir: str) -> None:
        self.seed = seed
        self.sweep = PaperSweep(seed, library)
        self.ops = self.sweep.ops[: self.CONFIGS * len(ALGORITHMS)]
        self.traced_ops = self.TRACED_CONFIGS * len(ALGORITHMS)
        self.path = os.path.join(scratch_dir, "run.jsonl")
        #: Host seconds of the untraced re-runs ``verify`` makes.
        self.untraced_sim_s: list[float] = []

    def call(self, op):
        perf = time.perf_counter
        tracer = Tracer()
        t0 = perf()
        metrics = self.sweep.call(op, tracer)
        t1 = perf()
        write_jsonl(tracer, self.path)
        t2 = perf()
        records = read_jsonl(self.path)
        t3 = perf()
        summary = summarize_records(records)
        t4 = perf()
        replayed = RunMetrics.from_trace(records)
        t5 = perf()
        return {
            "metrics": metrics,
            "summary": summary,
            "replayed": replayed,
            "events": len(tracer.events),
            "bytes": os.path.getsize(self.path),
            "phases": {
                "sim": t1 - t0,
                "write": t2 - t1,
                "read": t3 - t2,
                "summarize": t4 - t3,
                "replay": t5 - t4,
            },
        }

    def examine(self, op, output) -> Outcome:
        metrics = output["metrics"]
        label = f"config {op[0]} {op[1].value}"
        problems = _check_run(label, metrics, self.sweep.config.images_per_server)
        defects = []
        live = metrics.summary()
        replayed = output["replayed"].summary()
        diff = {
            key: (live.get(key), replayed.get(key))
            for key in sorted(set(live) | set(replayed))
            if live.get(key) != replayed.get(key)
        }
        if diff:
            fields = ", ".join(
                f"{key} live {a!r} replayed {b!r}" for key, (a, b) in diff.items()
            )
            known = [name for name, match in KNOWN_DEFECTS.items() if match(diff)]
            message = f"{label}: replayed summary differs from the live one: {fields}"
            if known:
                defects.append(f"{message} (known defect {known[0]})")
            else:
                problems.append(message)
        return Outcome(
            summary=canonical_json({"live": live, "trace": output["summary"]}),
            sim_times=[metrics.completion_time],
            attempted=1,
            failed=1 if problems or defects else 0,
            problems=problems,
            defects=defects,
            counts={
                "obs.events": output["events"],
                "obs.bytes_written": output["bytes"],
            },
            phases=output["phases"],
        )

    def verify(self, outcomes: list[Outcome]) -> list[str]:
        """The traced runs of the first configuration (all four
        algorithms) must match untraced runs of the same inputs."""
        problems = []
        self.untraced_sim_s = []
        checked = len(ALGORITHMS)
        for op, outcome in zip(self.ops[:checked], outcomes[:checked]):
            t0 = time.perf_counter()
            metrics = self.sweep.call(op)
            self.untraced_sim_s.append(time.perf_counter() - t0)
            traced = json.loads(outcome.summary)["live"]
            if canonical(metrics.summary()) != traced:
                problems.append(
                    f"config {op[0]} {op[1].value}: traced summary differs "
                    "from the untraced one"
                )
        return problems


WORKLOADS = {
    PaperSweep.name: PaperSweep,
    FleetChaos.name: FleetChaos,
    TracePipeline.name: TracePipeline,
}
