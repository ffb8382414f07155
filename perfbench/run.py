#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` measures the per-layer metrics in a separate traced run.
What a run does, the metrics and the workloads are described in
``README.md`` next to this file.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the metric names and units come from ``BENCHMARK.json``.
The exit code is 1 if a check failed.

Everything runs in this one process on one thread: no pool, no
subprocess.
"""

import time

#: Wall clock at the start of the script: ``--seconds`` counts from here,
#: so imports, set-up, the checks and the timed operations all fit in it.
START = time.perf_counter()

import os  # noqa: E402

# One thread: numpy's BLAS would otherwise start a pool on import whose
# CPU time lands in setup_s.  Must precede every numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no src/repro under {ROOT}; run from a checkout")
# The checkout's own source, ahead of any installed copy.
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from repro.traces.study import InternetStudy  # noqa: E402
from workloads import STUDY_SEED, WORKLOADS  # noqa: E402

#: The clock operations are timed on: CPU seconds of this thread (user +
#: system).  The program is single-threaded, so this is its whole cost,
#: without waits for the disk or for a virtual CPU that a shared host
#: gave to other tenants; wall seconds are printed beside it.
cpu_clock = time.thread_time

#: CPU seconds ``reference_loop`` takes at the host speed every host-CPU
#: metric is scaled to (about its median on the machine in
#: ``record.json``).
REFERENCE_CPU_S = 0.02

#: In a slow spell the loop's CPU seconds grow about 1.25 times as much
#: (in log terms) as the program's, so the scale is the loop's speed
#: ratio to this power (fitted in ``record.json``, ``host_noise``).
REFERENCE_EXPONENT = 0.8


def host_scale(ref: float) -> float:
    """The factor that takes CPU seconds measured while the reference
    loop took ``ref`` CPU seconds to the reference host speed."""
    return (REFERENCE_CPU_S / ref) ** REFERENCE_EXPONENT


def reference_loop() -> float:
    """A fixed pure-Python loop (heap of tuples, dict, generator resumes,
    float arithmetic), timed on ``cpu_clock`` just before every operation.

    A shared host's speed drifts by tens of percent within seconds, and
    the CPU clock runs on through a slow spell; this loop slows down
    with the program, so an operation's CPU seconds times
    ``host_scale`` of the loop's CPU seconds stays near what it would
    take at the reference speed.  The loop calls nothing in the program,
    so a change to the program does not move it."""
    def accumulate():
        total = 0.0
        while True:
            total += (yield total) * 0.5

    heap: list = []
    table: dict = {}
    gen = accumulate()
    next(gen)
    value = 0.0
    for i in range(20000):
        heapq.heappush(heap, (i * 7919 % 1009, i))
        table[i % 257] = table.get(i % 257, 0.0) + i * 0.25
        value += gen.send(float(i & 15))
        if len(heap) > 64:
            heapq.heappop(heap)
    return value


#: Self-time shares of the paper-scale run in the ROADMAP's cProfile
#: ledger, printed beside the traced run's split.
ROADMAP_LEDGER = (
    ("kernel", ("sim",), 0.25),
    ("actors", ("engine.actor",), 0.20),
    ("network", ("net",), 0.22),
    ("monitoring", ("monitor",), 0.15),
    ("traces", ("traces",), 0.04),
    ("planner", ("placement", "dataflow"), 0.01),
)


def make_workload(name: str, seed: int, library, scratch: str):
    cls = WORKLOADS[name]
    if name == "trace_pipeline":
        return cls(seed, library, scratch)
    return cls(seed, library)


# -- statistics ---------------------------------------------------------------
def percentile(values: list[float], pct: int) -> float:
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail(values: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it) at the highest multiple of
    5 % that leaves at least ten samples beyond it (never below p50)."""
    n = len(values)
    pct = max(50, 5 * ((20 * (n - 10)) // n))
    value = percentile(values, pct)
    return pct, value, sum(1 for v in values if v > value)


# -- set-up -----------------------------------------------------------------
def set_up(name: str, seed: int, scratch: str):
    """Build the trace library and the workload, and run its first
    operation once as a warm-up.  Returns the workload and the process
    CPU seconds of the library build."""
    c0 = time.process_time()
    library = InternetStudy(seed=STUDY_SEED).run()
    library_s = time.process_time() - c0
    workload = make_workload(name, seed, library, scratch)
    workload.call(workload.ops[0])
    return workload, library_s


# -- the timed operations -----------------------------------------------------
class Ledger:
    """Per-operation times and outcomes, plus every problem found."""

    def __init__(self, workload, pass_length: int) -> None:
        self.workload = workload
        self.n = pass_length
        self.walls: list[float] = []
        #: Unscaled CPU seconds of every timed call, and the reference
        #: loop's CPU seconds just before it.
        self.raw_cpu: list[float] = []
        self.refs: list[float] = []
        #: Scaled CPU seconds of every timed call, by operation index in
        #: the pass.
        self.op_cpu: list[list[float]] = [[] for _ in range(pass_length)]
        self.first_pass: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.defects: list[str] = []

    def record(self, k: int, wall: float, cpu: float, ref: float, outcome) -> None:
        """Work items and sim statistics count once, from the first pass;
        a repeat only has to reproduce it."""
        self.walls.append(wall)
        self.raw_cpu.append(cpu)
        self.refs.append(ref)
        self.op_cpu[k % self.n].append(cpu * host_scale(ref))
        self.problems.extend(outcome.problems)
        if k < self.n:
            self.first_pass.append(outcome)
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.defects.extend(outcome.defects)
        elif outcome.summary != self.first_pass[k % self.n].summary:
            self.problems.append(
                f"operation {k % self.n} (call {k}) did not reproduce its first result"
            )

    def verify(self) -> None:
        problems = self.workload.verify(self.first_pass)
        self.failed += len(problems)
        self.problems.extend(problems)


def timed_call(workload, op, ledger: Ledger, k: int, recorder=None) -> None:
    """Call ``op`` and record it as call ``k``; with a recorder, the call
    (not the checks after it) is operation ``k``'s root span."""
    cpu, perf = cpu_clock, time.perf_counter
    c0 = cpu()
    reference_loop()
    ref = cpu() - c0
    if recorder is not None:
        recorder.begin_op(k)
    c0 = cpu()
    t0 = perf()
    output = workload.call(op)
    wall = perf() - t0
    cpu_s = cpu() - c0
    if recorder is not None:
        recorder.end_op()
    ledger.record(k, wall, cpu_s, ref, workload.examine(op, output))


def run_timed(workload, deadline: float, ledger: Ledger) -> None:
    """One whole pass and its checks, then operations in pass order
    while the next one, at its first-pass wall time, ends before
    ``deadline`` (a ``perf_counter`` reading).

    Every operation runs at least once, and the operation-time metrics
    take each operation's median over its repeats, so a run that ends
    partway through a pass still weighs every operation once."""
    ops = workload.ops
    n = len(ops)
    gc.collect()
    for k in range(n):
        timed_call(workload, ops[k], ledger, k)
    ledger.verify()
    k = n
    while time.perf_counter() + ledger.walls[k % n] < deadline:
        timed_call(workload, ops[k % n], ledger, k)
        k += 1


def run_traced(workload, ledger: Ledger) -> spans.SpanRecorder:
    """The traced operations untraced, then again with spans."""
    ops = workload.ops[: ledger.n]
    gc.collect()
    for k, op in enumerate(ops):
        timed_call(workload, op, ledger, k)
    ledger.verify()
    recorder = spans.SpanRecorder()
    recorder.install()
    gc.collect()
    for k, op in enumerate(ops):
        timed_call(workload, op, ledger, ledger.n + k, recorder)
    return recorder


def digest(ledger: Ledger) -> str:
    text = "\n".join(sorted(o.summary for o in ledger.first_pass))
    return hashlib.sha256(text.encode()).hexdigest()


# -- metrics ------------------------------------------------------------------
def end_to_end(ledger: Ledger, setup_cpu: float, setup_note: str) -> tuple[dict, dict]:
    walls = ledger.walls
    # Set-up is scaled by the reference loop's speed right after it.
    setup_ref = statistics.median(ledger.refs[:5])
    setup_s = setup_cpu * host_scale(setup_ref)
    # One CPU time per distinct operation: its median over its repeats.
    op_cpu = [statistics.median(times) for times in ledger.op_cpu]
    raw_cpu = sum(ledger.raw_cpu[: ledger.n])
    sims = [t for o in ledger.first_pass for t in o.sim_times]
    cpu_pct, cpu_tail, cpu_beyond = tail(op_cpu)
    sim_pct, sim_tail, sim_beyond = tail(sims)
    values = {
        "setup_s": setup_s,
        "ops_per_cpu_s": len(op_cpu) / sum(op_cpu),
        "op_cpu_s_p50": statistics.median(op_cpu),
        "op_cpu_s_tail": cpu_tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "completed_share": 1.0 - ledger.failed / ledger.attempted,
        "sim_completion_s_p50": statistics.median(sims),
        "sim_completion_s_tail": sim_tail,
    }
    notes = {
        "setup_s": f"host CPU (process), scaled; unscaled {setup_cpu:.3f} s = "
        f"{setup_note}; reference loop {setup_ref:.4f} s",
        "ops_per_cpu_s": f"host CPU, scaled; {len(op_cpu)} operations, "
        f"{len(walls)} timed calls; first pass unscaled {raw_cpu:.2f} CPU s, "
        f"{sum(walls[: ledger.n]):.2f} wall s",
        "op_cpu_s_p50": f"host CPU, scaled; median wall {statistics.median(walls):.4f} "
        f"s; reference loop median {statistics.median(ledger.refs):.4f} s "
        f"(reference {REFERENCE_CPU_S} s)",
        "op_cpu_s_tail": f"host CPU, scaled; p{cpu_pct}, {cpu_beyond} of "
        f"{len(op_cpu)} operations beyond",
        "peak_rss_mib": "host; benchmark process",
        "completed_share": f"{ledger.attempted - ledger.failed} of "
        f"{ledger.attempted} work items (failed_share "
        f"{ledger.failed / ledger.attempted:.4f})",
        "sim_completion_s_p50": f"sim; {len(sims)} samples",
        "sim_completion_s_tail": f"sim; p{sim_pct}, {sim_beyond} of {len(sims)} beyond",
    }
    return values, notes


def per_layer(workload, ledger: Ledger, recorder, library_s: float) -> tuple[dict, dict]:
    profile = recorder.fold()
    n = profile.ops
    op_time = profile.op_time
    untraced_op_s = statistics.fmean(ledger.walls[:n])
    counts = profile.counts
    for outcome in ledger.first_pass:
        counts.update(outcome.counts)
    calls = profile.calls
    runs = profile.run_metrics

    def per_op(value: float) -> float:
        return value / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def share(seconds: float) -> float:
        return seconds / op_time

    def run_sum(attr: str) -> float:
        return sum(getattr(m, attr) for m in runs)

    unattributed = profile.self_time["bench"]
    values: dict[str, float] = {
        "bench.untraced_op_s": untraced_op_s,
        "bench.traced_op_s": op_time / n,
        "bench.tracing_overhead": (op_time / n) / untraced_op_s - 1.0,
        "bench.attribution_coverage": 1.0 - share(unattributed),
        "bench.digest32": int(digest(ledger)[:8], 16),
        "engine.actor_self_share": share(profile.group_self["actor"]),
    }
    for layer in spans.LAYERS:
        values[f"{layer}.self_share"] = share(profile.self_time[layer])
    for phase in spans.PHASES:
        values[f"{phase}_share"] = share(profile.phase_time[phase])
    transfers = run_sum("transfers")
    grants, denies = counts["fleet.grants"], counts["fleet.denies"]
    events = counts["sim.events"]
    values.update({
        "sim.events": per_op(events),
        "sim.cpu_us_per_event": ratio(profile.self_time["sim"], events) * 1e6,
        "net.sends": per_op(calls["Network.send"] + calls["Network.post"]),
        "net.transfers": per_op(transfers),
        "net.fluid_share": ratio(run_sum("fluid_transfers"), transfers),
        "net.bytes_on_wire": per_op(run_sum("bytes_on_wire")),
        "traces.transfer_time_calls": per_op(calls["BandwidthTrace.transfer_time"]),
        "traces.library_s": library_s,
        "monitor.estimate_calls": per_op(calls["MonitoringSystem.estimate"]),
        "monitor.piggyback_encode_calls": per_op(calls["encode_piggyback"]),
        "monitor.piggyback_decode_calls": per_op(calls["decode_piggyback"]),
        "monitor.piggyback_merge_ratio": ratio(
            counts["monitor.piggyback_merged"], counts["monitor.piggyback_offered"]
        ),
        "monitor.probes": per_op(run_sum("probes_sent")),
        "engine.planner_runs": per_op(run_sum("planner_runs")),
        "engine.relocations": per_op(run_sum("relocations")),
        "engine.barrier_rounds": per_op(run_sum("barrier_rounds")),
        "placement.plan_calls": per_op(counts["placement.plan_calls"]),
        "placement.rounds": per_op(run_sum("planner_rounds")),
        "placement.candidates": per_op(run_sum("planner_candidates")),
        "placement.links_queried": per_op(run_sum("planner_links_queried")),
        "placement.install_ratio": ratio(
            run_sum("placements_installed"), run_sum("planner_runs")
        ),
        "fleet.grants": per_op(grants),
        "fleet.denies": per_op(denies),
        "fleet.grant_rate": ratio(grants, grants + denies),
        "faults.retransmissions": per_op(run_sum("retransmissions")),
        "faults.abandoned": per_op(run_sum("abandoned_messages")),
        "faults.des_transfer_share": ratio(run_sum("des_transfers"), transfers),
        "workload.queries_scheduled": per_op(counts["workload.queries_scheduled"]),
        "workload.queries_completed": per_op(counts["workload.queries_completed"]),
        "obs.events": per_op(counts["obs.events"]),
        "obs.bytes_written": per_op(counts["obs.bytes_written"]),
    })
    # The trace pipeline's phases, timed by its own timers in the
    # untraced pass, as shares of the untraced operation time.  Emission
    # is the obs-traced simulation minus untraced runs of the same
    # inputs (the re-runs the trace pipeline's verify step makes).
    first = ledger.first_pass
    phase_s = {
        key: statistics.fmean(o.phases.get(key, 0.0) for o in first)
        for key in ("sim", "write", "read", "summarize", "replay")
    }
    baseline = getattr(workload, "untraced_sim_s", [])
    emit_s = (
        statistics.fmean(o.phases["sim"] for o in first[: len(baseline)])
        - statistics.fmean(baseline)
        if baseline
        else 0.0
    )
    values["obs.emit_share"] = emit_s / untraced_op_s
    for key in ("write", "read", "summarize", "replay"):
        values[f"obs.{key}_share"] = phase_s[key] / untraced_op_s
    notes = {
        "missing wrap targets": ", ".join(recorder.missing) or "none",
        "layer self seconds per operation (traced, host)": ", ".join(
            f"{layer} {profile.self_time[layer] / n:.4f}" for layer in spans.LAYERS
        ),
        "against the ROADMAP cProfile ledger": "; ".join(
            f"{label} {ledger_share(values, keys):.3f} (ledger {ref:.2f})"
            for label, keys, ref in ROADMAP_LEDGER
        ),
        "pipeline seconds per operation (untraced, host)": ", ".join(
            f"{key} {value:.4f}" for key, value in phase_s.items()
        ) + f", emit {emit_s:.4f}",
    }
    return values, notes


def ledger_share(values: dict, keys) -> float:
    """The summed self-time share of the layers (or the actor group)
    behind one line of the ROADMAP's ledger."""
    return sum(
        values["engine.actor_self_share"] if key == "engine.actor"
        else values[f"{key}.self_share"]
        for key in keys
    )


# -- main -----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, help="default: run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # CPU seconds since the interpreter started: start-up and imports.
    import_s = time.process_time()
    args = parse_args(argv)
    # A SIGTERM unwinds like an error, so the scratch directory goes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    deadline = START + (args.seconds or manifest["run_seconds"])
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        workload, library_s = set_up(args.workload, args.seed, scratch)
        # CPU seconds from interpreter start to the first timed operation.
        setup_cpu = time.process_time()
        setup_note = (
            f"imports {import_s:.3f} + trace library {library_s:.3f} + specs "
            f"and warm-up {setup_cpu - import_s - library_s:.3f}"
        )
        if args.trace == 0:
            ledger = Ledger(workload, len(workload.ops))
            run_timed(workload, deadline, ledger)
            values, notes = end_to_end(ledger, setup_cpu, setup_note)
            declared = manifest["end_to_end"]
        else:
            ledger = Ledger(workload, workload.traced_ops)
            recorder = run_traced(workload, ledger)
            values, notes = per_layer(workload, ledger, recorder, library_s)
            declared = manifest["per_layer"]

    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        note = notes.get(metric["name"], "")
        print(f"  {metric['name']:32s} {value:14.6g} {metric['unit']:8s} {note}")
    for key, note in notes.items():
        if key not in values:
            print(f"  {key}: {note}")
    print(f"digest sha256:{digest(ledger)} over {len(ledger.first_pass)} operations")
    for defect in ledger.defects:
        print(f"KNOWN DEFECT (work item counted as failed): {defect}")
    for problem in ledger.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not ledger.problems
    print(f"checks: {'ok' if correct else 'FAILED'}")
    print(f"wall seconds since start: {time.perf_counter() - START:.2f}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
