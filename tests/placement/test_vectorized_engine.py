"""The vectorized planner engine: equal plans, engine selection, fallback.

The scalar reference search runs on estimators that are not
snapshot-safe; :func:`unsafe` wraps an estimator that way, so each
comparison plans the same bandwidths through both engines.
"""

import random

import pytest

from repro.dataflow.cost import CostModel
from repro.dataflow.tree import complete_binary_tree, left_deep_tree
from repro.placement import planner_for
from repro.placement.download_all import download_all_placement
from repro.placement.global_planner import GlobalPlanner
from repro.placement.one_shot import OneShotPlanner


def random_setup(rng, with_replicas=False):
    n = rng.choice([2, 3, 4, 5, 8])
    shape = rng.choice(["binary", "left-deep"])
    tree = complete_binary_tree(n) if shape == "binary" else left_deep_tree(n)
    hosts = [f"h{i}" for i in range(n)] + ["client"]
    sizes = {node.node_id: rng.uniform(1e4, 1e6) for node in tree.nodes()}
    model = CostModel(tree, sizes, startup_cost=0.05, disk_rate=3e6)
    server_hosts = {
        s.node_id: hosts[i] for i, s in enumerate(tree.servers())
    }
    start = download_all_placement(tree, server_hosts, "client")
    replicas = None
    if with_replicas:
        replicas = {
            s: (server_hosts[s], rng.choice(hosts)) for s in server_hosts
        }

    bw = {}

    def estimator(a, b):
        key = (a, b)  # asymmetric estimator
        if key not in bw:
            bw[key] = rng.uniform(1e4, 1e7)
        return bw[key]

    return tree, hosts, model, start, replicas, estimator


def unsafe(estimator):
    """``estimator`` behind a view the planner may not snapshot."""

    def view(a, b):
        return estimator(a, b)

    view.snapshot_safe = False
    return view


def assert_same_result(scalar, vectorized):
    assert scalar.placement == vectorized.placement
    assert scalar.cost == vectorized.cost  # bitwise
    assert scalar.rounds == vectorized.rounds
    assert scalar.candidates_evaluated == vectorized.candidates_evaluated
    assert scalar.links_queried == vectorized.links_queried
    assert scalar.algorithm == vectorized.algorithm


class TestPlanEquality:
    @pytest.mark.parametrize("seed", range(20))
    def test_one_shot_plans_identical(self, seed):
        rng = random.Random(seed)
        with_replicas = seed % 3 == 0
        tree, hosts, model, start, replicas, est = random_setup(
            rng, with_replicas
        )
        scalar = OneShotPlanner(tree, hosts, model, 200, replicas)
        vector = OneShotPlanner(tree, hosts, model, 200, replicas)
        assert_same_result(
            scalar.plan(unsafe(est), start), vector.plan(est, start)
        )
        assert scalar.last_engine == "scalar"
        assert vector.last_engine == "vectorized"

    @pytest.mark.parametrize("seed", range(10))
    def test_global_warm_start_plans_identical(self, seed):
        rng = random.Random(500 + seed)
        tree, hosts, model, start, _, est = random_setup(rng)
        scalar = GlobalPlanner(tree, hosts, model, 200, None)
        vector = GlobalPlanner(tree, hosts, model, 200, None)
        # Warm-start from a scalar one-shot plan, as the controller does.
        warm = scalar.plan(unsafe(est), start).placement
        assert_same_result(
            scalar.plan(unsafe(est), warm), vector.plan(est, warm)
        )
        assert scalar.last_engine == "scalar"
        assert vector.last_engine == "vectorized"

    def test_recording_semantics_on_asymmetric_estimator(self):
        # The satellite check: the vectorized engine's links_queried must
        # equal the scalar RecordingEstimator set even when bandwidth is
        # direction-dependent (the recorder canonicalizes pairs, the
        # matrix must too).
        for seed in range(8):
            rng = random.Random(900 + seed)
            tree, hosts, model, start, _, est = random_setup(rng)
            planner = OneShotPlanner(tree, hosts, model)
            s = planner.plan(unsafe(est), start)
            v = planner.plan(est, start)
            assert s.links_queried == v.links_queried
            assert all(a < b for a, b in v.links_queried)


class TestEngineSelection:
    def setup_method(self):
        rng = random.Random(42)
        (self.tree, self.hosts, self.model, self.start, _, self.est) = (
            random_setup(rng)
        )

    def test_scalar_escape_hatch(self, scalar_planner):
        planner = OneShotPlanner(self.tree, self.hosts, self.model)
        assert planner.last_engine is None
        with scalar_planner():
            planner.plan(self.est, self.start)
        assert planner.last_engine == "scalar"
        planner.plan(self.est, self.start)
        assert planner.last_engine == "vectorized"

    def test_unsafe_estimator_falls_back_to_scalar(self):
        calls = []

        def live(a, b):
            calls.append((a, b))
            return 1e6

        live.snapshot_safe = False
        planner = OneShotPlanner(self.tree, self.hosts, self.model)
        result = planner.plan(live, self.start)
        assert planner.last_engine == "scalar"
        assert calls
        # The same bandwidths through the vectorized engine.
        assert_same_result(result, planner.plan(lambda a, b: 1e6, self.start))
        assert planner.last_engine == "vectorized"

    def test_global_planner_forwards_engine(self, scalar_planner):
        planner = GlobalPlanner(self.tree, self.hosts, self.model)
        with scalar_planner():
            planner.plan(self.est, self.start)
        assert planner.last_engine == "scalar"
        planner.plan(self.est, self.start)
        assert planner.last_engine == "vectorized"

    def test_planner_for_forwards_engine(self):
        for name in ("one-shot", "global"):
            planner = planner_for(name, self.tree, self.hosts, self.model)
            planner.plan(self.est, self.start)
            assert planner.last_engine == "vectorized"
            planner.plan(unsafe(self.est), self.start)
            assert planner.last_engine == "scalar"
        # Planners without a move grid plan either estimator.
        download = planner_for(
            "download-all", self.tree, self.hosts, self.model
        )
        download.plan(self.est, self.start)
        download.plan(unsafe(self.est), self.start)

    def test_fleet_planner_passes_engine_through(self, scalar_planner):
        planner = planner_for(
            "fleet-coordinated", self.tree, self.hosts, self.model
        )
        result = planner.plan(self.est, self.start)
        assert planner.inner.last_engine == "vectorized"
        scalar = planner_for(
            "fleet-coordinated", self.tree, self.hosts, self.model
        )
        with scalar_planner():
            expected = scalar.plan(self.est, self.start)
        assert scalar.inner.last_engine == "scalar"
        assert result.placement == expected.placement
        assert result.cost == expected.cost
