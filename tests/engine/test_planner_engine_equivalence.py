"""Vectorized vs scalar planner engine: bit-identical full runs.

The engine choice must be *observationally invisible*: a run forced onto
the reference per-candidate search (the ``scalar_planner`` fixture) and
the default vectorized run must agree on every metric, every arrival
time and the byte-exact obs event stream, across all four algorithms,
with and without the reference chaos plan, and under the concurrent
fleet-coordinated workload.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.engine.config import Algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.faults import reference_chaos_plan
from repro.obs import Tracer
from repro.placement.one_shot import OneShotPlanner

ALGORITHMS = [
    Algorithm.DOWNLOAD_ALL,
    Algorithm.ONE_SHOT,
    Algorithm.LOCAL,
    Algorithm.GLOBAL,
]

#: These runs finish in a few simulated minutes; a 30 s relocation
#: period makes the global controller replan (on the vectorized engine)
#: before they do.
SETUP = ExperimentConfig(
    num_servers=4, images_per_server=8, relocation_period=30.0
)


def _stream_digest(tracer: Tracer) -> str:
    """Content hash of the obs stream with run-relative message uids."""
    uids = sorted({e["uid"] for e in tracer.events if "uid" in e})
    rank = {uid: i for i, uid in enumerate(uids)}
    events = [
        {**e, "uid": rank[e["uid"]]} if "uid" in e else e
        for e in tracer.events
    ]
    return hashlib.sha256(
        json.dumps(events, sort_keys=True).encode()
    ).hexdigest()


@pytest.fixture
def engines_used(monkeypatch):
    """Every ``OneShotPlanner.last_engine`` after a plan call, in order."""
    used = []
    plan = OneShotPlanner.plan

    def spy(self, *args, **kwargs):
        result = plan(self, *args, **kwargs)
        used.append(self.last_engine)
        return result

    monkeypatch.setattr(OneShotPlanner, "plan", spy)
    return used


def _run_pair(scalar_planner, engines_used, run):
    """``run(tracer)`` by default and under the scalar reference search:
    (default result, digest, engines) then (reference result, digest)."""
    fast_tracer, ref_tracer = Tracer(), Tracer()
    fast = run(fast_tracer)
    fast_engines = list(engines_used)
    engines_used.clear()
    with scalar_planner():
        ref = run(ref_tracer)
    # The oracle really ran the reference search.
    assert set(engines_used) <= {"scalar"}
    return (
        fast, _stream_digest(fast_tracer), fast_engines,
        ref, _stream_digest(ref_tracer),
    )


def _pair(scalar_planner, engines_used, setup, index, algorithm):
    return _run_pair(
        scalar_planner,
        engines_used,
        lambda tracer: run_configuration(
            setup, index, algorithm, tracer=tracer
        ),
    )


class TestRunEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_fault_runs_identical(
        self, algorithm, scalar_planner, engines_used
    ):
        fast, fd, engines, ref, rd = _pair(
            scalar_planner, engines_used, SETUP, 0, algorithm
        )
        assert fast.summary() == ref.summary()
        assert fast.arrival_times == ref.arrival_times
        assert fd == rd
        if algorithm is Algorithm.GLOBAL:
            # Controller replans read snapshot-safe estimators.
            assert engines[-1] == "vectorized"
        else:
            # The t=0 plan reads the live, not snapshot-safe, view.
            assert set(engines) <= {"scalar"}

    @pytest.mark.parametrize(
        "algorithm", [Algorithm.GLOBAL, Algorithm.ONE_SHOT]
    )
    def test_chaos_runs_identical(
        self, algorithm, scalar_planner, engines_used
    ):
        hosts = (*SETUP.server_hosts, SETUP.client_host)
        setup = replace(
            SETUP, fault_plan=reference_chaos_plan(hosts, seed=1)
        )
        fast, fd, engines, ref, rd = _pair(
            scalar_planner, engines_used, setup, 0, algorithm
        )
        assert fast.summary() == ref.summary()
        assert fast.arrival_times == ref.arrival_times
        assert fd == rd
        if algorithm is Algorithm.GLOBAL:
            assert engines[-1] == "vectorized"


class TestWorkloadEquivalence:
    def test_fleet_coordinated_workload_identical(
        self, scalar_planner, engines_used
    ):
        from repro.fleet import FleetPolicy
        from repro.workload import (
            ClosedLoop,
            QueryClass,
            WorkloadSpec,
            run_workload,
        )

        spec = WorkloadSpec(
            classes=(
                QueryClass(
                    name="global",
                    algorithm=Algorithm.GLOBAL,
                    overrides={"relocation_period": 30.0},
                ),
                QueryClass(name="one-shot", algorithm=Algorithm.ONE_SHOT),
            ),
            num_clients=2,
            queries_per_client=1,
            arrivals=ClosedLoop(think_time=2.0),
            # Seed 12 draws one query of each class, so a global query
            # replans under the coordinator.
            seed=12,
            num_servers=4,
            images_per_server=4,
            fleet=FleetPolicy(mode="coordinated"),
        )

        fast, fd, engines, ref, rd = _run_pair(
            scalar_planner,
            engines_used,
            lambda tracer: run_workload(spec, tracer=tracer),
        )
        assert fast.to_dict() == ref.to_dict()
        assert fd == rd
        assert fast.fleet["fleet"]["grants"] > 0
        assert engines[-1] == "vectorized"


class TestCliSmoke:
    def test_compare_byte_identical_under_chaos(
        self, tmp_path, capsys, scalar_planner
    ):
        from repro.cli import main

        hosts = tuple(f"h{i}" for i in range(4)) + ("client",)
        plan_path = tmp_path / "chaos.json"
        reference_chaos_plan(hosts, seed=1).to_json(plan_path)
        argv = [
            "compare",
            "--servers",
            "4",
            "--images",
            "6",
            "--configs",
            "1",
            "--faults",
            str(plan_path),
        ]
        outputs = {}
        assert main(argv) == 0
        outputs["vectorized"] = capsys.readouterr().out
        with scalar_planner():
            assert main(argv) == 0
        outputs["scalar"] = capsys.readouterr().out
        assert outputs["vectorized"] == outputs["scalar"]
        assert "download-all" in outputs["vectorized"]
