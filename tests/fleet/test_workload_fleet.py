"""Fleet coordination end to end: engine wiring, accounting, replay."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.engine.config import Algorithm
from repro.faults import reference_chaos_plan
from repro.fleet.counters import CoordinationCounters
from repro.obs import Tracer
from repro.workload import (
    ClosedLoop,
    FleetPolicy,
    OpenLoop,
    QueryClass,
    StreamingFleetMetrics,
    WorkloadSpec,
    fleet_from_trace,
    run_workload,
)


def contended_spec(fleet, **overrides):
    """Replanning queries under tight relocation budgets: grants and
    denies both fire (asserted below), exercising every counter."""
    defaults = dict(
        classes=(
            QueryClass(
                name="g",
                algorithm=Algorithm.GLOBAL,
                weight=2.0,
                slo_target=2000.0,
                overrides={"relocation_period": 60.0},
            ),
            QueryClass(
                name="l",
                algorithm=Algorithm.LOCAL,
                overrides={"relocation_period": 60.0},
            ),
        ),
        num_clients=3,
        queries_per_client=2,
        arrivals=OpenLoop(rate=1 / 120.0),
        seed=17,
        num_servers=4,
        images_per_server=24,
        fleet=fleet,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


TIGHT = FleetPolicy(
    mode="coordinated", link_tokens=1.0, token_refill_seconds=600.0
)


def stream_digest(events) -> str:
    """Content hash of an obs stream with run-relative message uids
    (same normalization as the defaults-equivalence golden)."""
    uids = sorted({e["uid"] for e in events if "uid" in e})
    rank = {uid: i for i, uid in enumerate(uids)}
    normalized = [
        {**e, "uid": rank[e["uid"]]} if "uid" in e else e for e in events
    ]
    return hashlib.sha256(
        json.dumps(normalized, sort_keys=True).encode()
    ).hexdigest()


class TestSpecWiring:
    def test_fleet_engaged_property(self):
        assert not contended_spec(None).fleet_engaged
        assert contended_spec(TIGHT).fleet_engaged

    def test_rejects_non_policy(self):
        with pytest.raises(ValueError, match="FleetPolicy"):
            contended_spec("coordinated")


class TestDefaultsOff:
    def test_no_fleet_block_and_identical_runs(self):
        # fleet=None must not leave any trace of the coordination layer:
        # no summary block, and the whole run (summary AND obs stream)
        # bit-identical across repetitions.
        tracer_a, tracer_b = Tracer(), Tracer()
        a = run_workload(contended_spec(None), tracer=tracer_a)
        b = run_workload(contended_spec(None), tracer=tracer_b)
        assert "fleet" not in a.fleet
        assert a.fleet == b.fleet
        assert stream_digest(tracer_a.events) == stream_digest(
            tracer_b.events
        )
        assert not any(
            e["type"].startswith("fleet.") for e in tracer_a.events
        )


class TestCoordinatedRun:
    def test_counters_engage_and_reconcile_exact(self):
        tracer = Tracer()
        result = run_workload(contended_spec(TIGHT), tracer=tracer)
        block = result.fleet["fleet"]
        assert block["claims"] == 6
        assert block["grants"] > 0
        assert block["denies"] > 0
        assert block["denied_links"]  # bottleneck histogram populated
        assert block["planner_rounds"] > 0
        assert block["planner_candidates"] > 0
        assert block["planner_links_queried"] > 0
        assert 0.0 <= block["grant_rate"] <= 1.0
        # Replay of the same trace rebuilds the identical summary.
        assert fleet_from_trace(tracer.events) == result.fleet

    def test_streaming_replay_reconciles(self):
        tracer = Tracer()
        result = run_workload(
            contended_spec(TIGHT, metrics_mode="streaming"), tracer=tracer
        )
        replay = fleet_from_trace(
            tracer.events, metrics=StreamingFleetMetrics(3)
        )
        assert replay["fleet"] == result.fleet["fleet"]
        assert replay["per_class"] == result.fleet["per_class"]

    def test_fleet_run_is_deterministic(self):
        tracer_a, tracer_b = Tracer(), Tracer()
        a = run_workload(contended_spec(TIGHT), tracer=tracer_a)
        b = run_workload(contended_spec(TIGHT), tracer=tracer_b)
        assert a.fleet == b.fleet
        assert stream_digest(tracer_a.events) == stream_digest(
            tracer_b.events
        )

    def test_fair_mode_runs_and_reconciles(self):
        fair = FleetPolicy(
            mode="fair", link_tokens=1.0, token_refill_seconds=600.0
        )
        tracer = Tracer()
        result = run_workload(contended_spec(fair), tracer=tracer)
        assert result.fleet["fleet"]["claims"] == 6
        assert fleet_from_trace(tracer.events) == result.fleet

    def test_generous_budget_changes_nothing_but_grants(self):
        # With effectively unlimited tokens every proposal is granted:
        # per-query behaviour matches what residual-only planning does.
        generous = FleetPolicy(link_tokens=1e9, token_refill_seconds=1.0)
        result = run_workload(contended_spec(generous))
        block = result.fleet["fleet"]
        assert block["denies"] == 0
        assert block["grant_rate"] == 1.0


class TestChaosFleet:
    def test_coordination_improves_p99_or_fairness(self):
        # Six global queries replanning every 30 s while the reference
        # chaos plan degrades links under them: blind planners all chase
        # the same post-fault bandwidth, the coordinator's residual view
        # and relocation budget cap that churn.
        def spec(fleet):
            base = WorkloadSpec(
                classes=(
                    QueryClass(
                        name="global",
                        algorithm=Algorithm.GLOBAL,
                        slo_target=2000.0,
                        overrides={"relocation_period": 30.0},
                    ),
                ),
                num_clients=6,
                queries_per_client=1,
                arrivals=ClosedLoop(),
                seed=17,
                num_servers=4,
                images_per_server=24,
                fleet=fleet,
            )
            return replace(
                base, fault_plan=reference_chaos_plan(base.all_hosts, seed=3)
            )

        blind = run_workload(spec(None)).fleet
        coordinated = run_workload(spec(TIGHT)).fleet
        block = coordinated["fleet"]
        assert block["grants"] > 0 and block["denies"] > 0
        assert (
            coordinated["latency"]["p99"] < blind["latency"]["p99"]
            or coordinated["fairness_jain"] > blind["fairness_jain"]
        )
        assert (
            coordinated["relocations"]["total"]
            < blind["relocations"]["total"]
        )


class TestCounters:
    def test_merge_is_commutative(self):
        def build(order):
            counters = CoordinationCounters()
            for kind, kwargs in order:
                counters.note(kind, **kwargs)
            return counters

        events = [
            ("claim", dict(class_name="g")),
            ("grant", dict(class_name="g", value=3)),
            ("deny", dict(class_name="l", link="h0|h1")),
            ("deny", dict(class_name="g", link="h0|h1")),
            ("rebalance", dict(class_name="g")),
        ]
        a = build(events[:2])
        a.note_effort(5, 100, 20)
        b = build(events[2:])
        b.note_effort(7, 50, 10)
        ab = build(events[:2])
        ab.note_effort(5, 100, 20)
        ab.merge(b)
        ba = build(events[2:])
        ba.note_effort(7, 50, 10)
        ba.merge(a)
        assert ab.block() == ba.block()
        assert ab.block()["denied_links"] == {"h0|h1": 2}
        assert ab.block()["planner_rounds"] == 12

    def test_effort_alone_does_not_engage(self):
        counters = CoordinationCounters()
        counters.note_effort(10, 200, 40)
        assert not counters.engaged
        counters.note("claim")
        assert counters.engaged

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CoordinationCounters().note("barter")
