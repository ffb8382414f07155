#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --workload paper_sweep --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one run after another, and
prints for every end-to-end metric the median and the spread: the
distance between the first and the third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  ``--out`` also writes the values and spreads as
JSON.  This is how the spreads in ``record.json`` were measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or manifest["run_seconds"]

    runs = []
    for seed in args.seeds:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0",
        ]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True)
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        defects = [line for line in lines if line.startswith("KNOWN DEFECT")]
        print(
            f"seed {seed}: {wall:.1f} s wall, correct {result['correct']}, "
            f"failed {result['failed']} of {result['attempted']}"
            + "".join(f"\n  {line}" for line in defects),
            flush=True,
        )
        runs.append({"seed": seed, "wall_s": wall, "result": result})

    names = list(runs[0]["result"]["metrics"])
    table = {}
    for name in names:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        table[name] = {
            "median": statistics.median(values),
            "spread": spread(values) if len(values) > 1 else 0.0,
            "values": values,
        }
        print(
            f"  {name:32s} median {table[name]['median']:14.6g}  "
            f"spread {table[name]['spread']:.4f}"
        )
    print(f"  max wall per run {max(run['wall_s'] for run in runs):.1f} s")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload,
            "seconds": seconds,
            "seeds": args.seeds,
            "wall_s": [run["wall_s"] for run in runs],
            "metrics": table,
        }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
