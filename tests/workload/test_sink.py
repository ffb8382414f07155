"""The MetricsSink funnel: exact and streaming fleet metrics."""

import copy
import itertools
import json
import random
import tracemalloc

import pytest

from repro.engine.config import Algorithm
from repro.workload import (
    ClosedLoop,
    ExactFleetMetrics,
    QueryClass,
    QueryStats,
    StreamingFleetMetrics,
    WorkloadSpec,
    client_index_of,
    fleet_metrics_for,
    merge_sinks,
    run_workload,
)


def tiny_spec(**overrides):
    defaults = dict(
        classes=(QueryClass(name="os", algorithm=Algorithm.ONE_SHOT),),
        num_clients=3,
        queries_per_client=2,
        arrivals=ClosedLoop(),
        seed=11,
        num_servers=4,
        images_per_server=2,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


def synthetic_stats(n, num_clients, seed=3):
    """Deterministic finished/truncated QueryStats over a population."""
    rng = random.Random(seed)
    stats = []
    for i in range(n):
        client = i % num_clients
        issued = 10.0 * i
        truncated = rng.random() < 0.1
        stats.append(
            QueryStats(
                query_id=f"c{client}:{i // num_clients}",
                class_name="os" if i % 2 else "gl",
                algorithm="one-shot" if i % 2 else "global",
                issued_at=issued,
                completion_time=None if truncated else issued + rng.uniform(50, 500),
                images_delivered=8,
                truncated=truncated,
                relocations=rng.randrange(3),
                aborted_relocations=0,
                bytes_on_wire=float(rng.randrange(10**6)),
            )
        )
    return stats


class TestQueryStats:
    def test_latency_and_finished(self):
        done = QueryStats(
            query_id="c0:0", class_name="os", algorithm="one-shot",
            issued_at=5.0, completion_time=25.0, images_delivered=4,
            truncated=False, relocations=0, aborted_relocations=0,
            bytes_on_wire=0.0,
        )
        assert done.finished and done.latency == 20.0
        trunc = QueryStats(
            query_id="c1:0", class_name="os", algorithm="one-shot",
            issued_at=5.0, completion_time=None, images_delivered=0,
            truncated=True, relocations=0, aborted_relocations=0,
            bytes_on_wire=0.0,
        )
        assert not trunc.finished and trunc.latency is None

    def test_client_index_of(self):
        assert client_index_of("c0:0") == 0
        assert client_index_of("c17:3") == 17


class TestModeSelection:
    def test_threshold_picks_exact_or_streaming(self):
        exact = fleet_metrics_for(scheduled=10, num_clients=5)
        assert isinstance(exact, ExactFleetMetrics)
        streaming = fleet_metrics_for(
            scheduled=10, num_clients=5, exact_threshold=5
        )
        assert isinstance(streaming, StreamingFleetMetrics)

    def test_forced_modes(self):
        assert isinstance(
            fleet_metrics_for(scheduled=10**6, num_clients=5, mode="exact"),
            ExactFleetMetrics,
        )
        assert isinstance(
            fleet_metrics_for(scheduled=1, num_clients=5, mode="streaming"),
            StreamingFleetMetrics,
        )
        with pytest.raises(ValueError):
            fleet_metrics_for(scheduled=1, num_clients=5, mode="bogus")

    def test_spec_builds_its_sink(self):
        spec = tiny_spec(metrics_mode="streaming")
        assert spec.build_metrics().mode == "streaming"
        assert tiny_spec().build_metrics().mode == "exact"


class TestExactSink:
    def test_small_fleet_summary_unchanged(self):
        """The sink path is byte-identical to the pre-sink goldens."""
        result = run_workload(tiny_spec())
        assert result.fleet["workload_schema"] == 1
        assert result.metrics.mode == "exact"
        assert result.fleet["completed"] == 6
        assert result.fleet == result.metrics.summary(
            result.elapsed, scheduled=result.fleet["scheduled"]
        )

    def test_merge_resorts_stats(self):
        stats = synthetic_stats(8, 4)
        one = ExactFleetMetrics()
        for s in stats:
            one.query_finished(s)
        shards = [ExactFleetMetrics(), ExactFleetMetrics()]
        for i, s in enumerate(stats):
            shards[i % 2].query_finished(s)
        merged = merge_sinks([shards[1], shards[0]])
        assert merged.summary(100.0) == one.summary(100.0)


class TestStreamingSink:
    def feed(self, sink, stats):
        for s in stats:
            sink.query_started(s.query_id, s.class_name, s.issued_at)
            sink.query_finished(s)

    def test_summary_shape(self):
        sink = StreamingFleetMetrics(num_clients=4)
        self.feed(sink, synthetic_stats(20, 4))
        sink.link_transfer("h0", "h1", 1000.0, 2.0, "c0:0")
        summary = sink.summary(500.0, scheduled=20)
        assert summary["workload_schema"] == 2
        assert summary["mode"] == "streaming"
        assert set(summary["latency"]) == {
            "count", "mean", "p50", "p95", "p99", "max",
        }
        assert summary["clients"]["total"] == 4
        assert "queries" not in summary
        json.dumps(summary)  # JSON-safe

    def test_matches_exact_within_error(self):
        stats = synthetic_stats(400, 8)
        exact = ExactFleetMetrics()
        sink = StreamingFleetMetrics(num_clients=8, relative_error=0.01)
        for s in stats:
            exact.query_finished(s)
        self.feed(sink, stats)
        exact_summary = exact.summary(5000.0)
        streaming_summary = sink.summary(5000.0)
        assert streaming_summary["completed"] == exact_summary["completed"]
        assert streaming_summary["truncated"] == exact_summary["truncated"]
        for key in ("p50", "p95", "p99"):
            truth = exact_summary["latency"][key]
            estimate = streaming_summary["latency"][key]
            assert abs(estimate - truth) <= 2 * 0.01 * truth
        assert streaming_summary["latency"]["max"] == (
            exact_summary["latency"]["max"]
        )
        assert abs(
            streaming_summary["fairness_jain"]
            - exact_summary["fairness_jain"]
        ) < 1e-9

    def test_shard_merge_is_order_invariant(self):
        stats = synthetic_stats(60, 6)
        shards = []
        for i in range(3):
            sink = StreamingFleetMetrics(num_clients=6)
            self.feed(sink, [s for s in stats if client_index_of(s.query_id) % 3 == i])
            sink.link_transfer("h0", f"h{i + 1}", 100.0 * (i + 1), 1.0)
            shards.append(sink)
        summaries = set()
        for order in itertools.permutations(range(3)):
            merged = merge_sinks([copy.deepcopy(shards[i]) for i in order])
            summaries.add(json.dumps(merged.summary(600.0, scheduled=60)))
        assert len(summaries) == 1

    def test_memory_flat_over_stream(self):
        # Per-client state is allocated up front and the latency sketch
        # grows logarithmically, so the second half of a long stream
        # must not grow the sink.
        stats = synthetic_stats(20_000, 10_000)
        sink = StreamingFleetMetrics(num_clients=10_000)
        tracemalloc.start()
        try:
            self.feed(sink, stats[:10_000])
            halfway, _ = tracemalloc.get_traced_memory()
            self.feed(sink, stats[10_000:])
            final, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.summary(1.0)["completed"] > 0
        assert final / halfway < 1.5

    def test_merge_guards(self):
        with pytest.raises(ValueError, match="population"):
            StreamingFleetMetrics(4).merge(StreamingFleetMetrics(5))
        with pytest.raises(ValueError, match="accuracy"):
            StreamingFleetMetrics(4, relative_error=0.01).merge(
                StreamingFleetMetrics(4, relative_error=0.02)
            )
        with pytest.raises(TypeError):
            StreamingFleetMetrics(4).merge(ExactFleetMetrics())
        with pytest.raises(TypeError):
            ExactFleetMetrics().merge(StreamingFleetMetrics(4))

    def test_link_bytes_attributed_by_class(self):
        sink = StreamingFleetMetrics(num_clients=2)
        sink.query_started("c0:0", "gl", 0.0)
        sink.link_transfer("h1", "h0", 500.0, 1.0, "c0:0")
        sink.link_transfer("h0", "h1", 300.0, 1.0, "c0:0")
        summary = sink.summary(10.0)
        link = summary["links"]["h0--h1"]
        assert link["bytes"] == 800.0
        assert link["classes"] == {"gl": 800.0}
        assert summary["bytes_on_wire"] == 800.0

    def test_streaming_workload_run(self):
        result = run_workload(tiny_spec(metrics_mode="streaming"))
        fleet = result.fleet
        assert fleet["workload_schema"] == 2
        assert fleet["completed"] == 6
        assert fleet["latency"]["count"] == 6
        assert result.queries == []

    def test_live_streaming_close_to_exact_run(self):
        import math

        exact = run_workload(tiny_spec()).fleet
        streaming = run_workload(tiny_spec(metrics_mode="streaming")).fleet
        assert streaming["completed"] == exact["completed"]
        lats = sorted(
            q["latency"] for q in exact["queries"] if q["latency"] is not None
        )
        # At tiny n the sketch and the exact block round fractional ranks
        # differently, so accept either adjacent order statistic.
        for p in (50, 95, 99):
            rank = (p / 100.0) * (len(lats) - 1)
            candidates = {lats[math.floor(rank)], lats[math.ceil(rank)]}
            estimate = streaming["latency"][f"p{p}"]
            assert any(
                abs(estimate - truth) <= 2 * 0.01 * truth
                for truth in candidates
            )


class TestMergeSinks:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_sinks([])
