"""Replaying a recorded trace must reproduce the live run's metrics.

Every trace event is emitted at the exact code point where the matching
counter increments, so a seeded run's JSONL archive replays to a
:class:`RunMetrics` that matches the live one field-for-field — the
paper-facing aggregates and the event stream cannot drift apart.
"""

from __future__ import annotations

import math

import pytest

from repro.engine.config import Algorithm
from repro.engine.metrics import RunMetrics
from repro.engine.simulation import run_simulation
from repro.obs import Tracer, summarize_records, write_jsonl
from repro.obs.summary import format_trace_summary
from tests.conftest import tiny_spec


def _assert_summaries_match(live: RunMetrics, replayed: RunMetrics) -> None:
    live_summary, replay_summary = live.summary(), replayed.summary()
    for key, value in live_summary.items():
        other = replay_summary[key]
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(other), key
        else:
            assert other == value, key


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_replay_matches_live_metrics(algorithm, tmp_path):
    tracer = Tracer()
    live = run_simulation(tiny_spec(algorithm=algorithm, images=5), tracer=tracer)
    path = tmp_path / "run.jsonl"
    write_jsonl(tracer, path)

    replayed = RunMetrics.from_trace(str(path))
    _assert_summaries_match(live, replayed)
    assert replayed.arrival_times == live.arrival_times
    assert replayed.relocation_events == live.relocation_events


def test_from_trace_accepts_records():
    tracer = Tracer()
    live = run_simulation(tiny_spec(algorithm=Algorithm.GLOBAL, images=4),
                          tracer=tracer)
    replayed = RunMetrics.from_trace(tracer.events)
    _assert_summaries_match(live, replayed)


def test_replay_counts_barrier_round_at_install():
    # A run that ends mid change-over: the live run counted the round
    # when it started, and its barrier.round span never closed.
    in_flight = [{"type": "placement.install", "t": 5.0, "plan_seq": 1,
                  "moves": 2}]
    replayed = RunMetrics.from_trace(in_flight)
    assert replayed.placements_installed == 1
    assert replayed.barrier_rounds == 1
    assert replayed.barrier_stall_seconds == 0.0

    closed = in_flight + [{"type": "barrier.round", "t": 5.0, "dur": 2.5,
                           "plan_seq": 1}]
    replayed = RunMetrics.from_trace(closed)
    assert replayed.barrier_rounds == 1
    assert replayed.barrier_stall_seconds == 2.5


def test_trace_summary_consistent_with_metrics():
    tracer = Tracer()
    live = run_simulation(tiny_spec(algorithm=Algorithm.GLOBAL, images=4),
                          tracer=tracer)
    summary = summarize_records(tracer.events)
    assert summary.arrivals == len(live.arrival_times)
    assert summary.completion_time == live.completion_time
    assert len(summary.relocations) == live.relocations
    assert summary.barrier_stall_seconds == pytest.approx(
        live.barrier_stall_seconds
    )
    wire_bytes = sum(v[1] for v in summary.link_traffic.values())
    assert wire_bytes == pytest.approx(live.bytes_on_wire)


class TestEventHistogram:
    def test_counts_every_non_frame_record(self):
        xfer = {"src_host": "a", "dst_host": "b", "wire_bytes": 10}
        records = [
            {"type": "trace.header", "meta": {}},
            {"type": "link.transfer", "t": 1.0, **xfer},
            {"type": "link.transfer", "t": 2.0, **xfer},
            {"type": "planner.run", "t": 3.0},
            {"type": "trace.footer", "counters": {}},
        ]
        summary = summarize_records(records)
        assert summary.event_histogram == {
            "link.transfer": 2,
            "planner.run": 1,
        }

    def test_histogram_totals_match_stream(self):
        tracer = Tracer()
        run_simulation(tiny_spec(algorithm=Algorithm.GLOBAL, images=4),
                       tracer=tracer)
        summary = summarize_records(tracer.events)
        framed = [e for e in tracer.events
                  if not e.get("type", "").startswith("trace.")]
        assert sum(summary.event_histogram.values()) == len(framed)
        assert summary.event_histogram["link.transfer"] == sum(
            v[0] for v in summary.link_traffic.values()
        )

    def test_report_renders_histogram_and_kernel_counters(self):
        xfer = {"src_host": "a", "dst_host": "b", "wire_bytes": 10}
        summary = summarize_records([
            {"type": "link.transfer", "t": 1.0, **xfer},
            {"type": "link.transfer", "t": 2.0, **xfer},
            {"type": "arrival", "t": 3.0},
            {
                "type": "trace.footer",
                "counters": {
                    "sim.events": 42,
                    "sim.events.Callback": 30,
                    "sim.events.Timeout": 12,
                },
            },
        ])
        report = format_trace_summary(summary)
        assert "trace event histogram (3 records, 2 types):" in report
        # Sorted by descending count.
        lines = report.splitlines()
        histogram_at = lines.index("trace event histogram (3 records, 2 types):")
        assert "link.transfer" in lines[histogram_at + 1]
        assert "arrival" in lines[histogram_at + 2]
        assert "kernel events processed: 42" in report
        assert any("Callback" in line and "30" in line for line in lines)

    def test_report_caps_histogram_rows(self):
        records = [{"type": f"kind.{i:03d}", "t": float(i)} for i in range(30)]
        report = format_trace_summary(summarize_records(records), max_rows=5)
        assert "... 25 more types" in report
