"""The one-shot placement algorithm (§2.1).

The algorithm iteratively shortens the critical path.  Each round it
examines every operator on the current critical path, prices every
single-operator relocation, and keeps the cheapest; the round's best
variation is adopted if it strictly improves the placement, and the
process repeats until no strict improvement is found.

The search is exactly the paper's pseudocode:

.. code-block:: none

    Initialization: all operators placed at the client.
    Iterative step:
      C' <- C; N' <- current placement N; K <- critical path of N
      for each operator in K:
        consider all alternative locations for the operator
        let C_min be the cost of the cheapest alternative placement
        if (C_min <= C'): C' <- C_min; N' <- cheapest placement
      if (C' < C): N <- N'; C <- C'   (and iterate again)
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dataflow.cost import (
    BandwidthEstimator,
    CostModel,
    RecordingEstimator,
    snapshot_safe,
)
from repro.dataflow.critical import (
    BatchMoveEvaluator,
    SingleMoveEvaluator,
    critical_path,
)
from repro.dataflow.placement import Placement
from repro.dataflow.tree import CombinationTree
from repro.obs.events import PLANNER_SEARCH
from repro.obs.tracer import ensure_tracer
from repro.placement.base import PlanResult


class OneShotPlanner:
    """Iterative critical-path-shortening search.

    Parameters
    ----------
    tree:
        The combination tree.
    hosts:
        All hosts that may run operators (servers' hosts plus the client's;
        the paper's assumption 1 is that servers can host computation).
    cost_model:
        Analytic cost model pricing placements.
    max_rounds:
        Safety bound on improvement rounds (the search provably terminates
        because each round strictly decreases the cost, but float quirks
        deserve a belt as well as braces).
    server_replicas:
        Optional ``{server node id: candidate hosts}``: servers whose
        dataset is replicated may be *served* from any replica, so the
        search treats them as movable among those hosts (the paper's
        assumption 3 relaxed).

    Each plan call prices each round's whole move grid in one numpy pass
    (:class:`repro.dataflow.critical.BatchMoveEvaluator`), which
    snapshots the estimator once per call.  Estimators with per-call
    side effects (``snapshot_safe = False``, e.g. the live traced
    monitoring view) take the per-candidate scalar search instead; both
    return bit-identical results, and the engine actually used is
    reported in :attr:`last_engine`.
    """

    name = "one-shot"

    def __init__(
        self,
        tree: CombinationTree,
        hosts: Sequence[str],
        cost_model: CostModel,
        max_rounds: int = 200,
        server_replicas: "Optional[dict[str, tuple[str, ...]]]" = None,
    ) -> None:
        if not hosts:
            raise ValueError("need at least one candidate host")
        if max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {max_rounds!r}")
        self.tree = tree
        self.hosts = sorted(set(hosts))
        self.cost_model = cost_model
        self.max_rounds = max_rounds
        #: Engine used by the most recent ``plan`` call ("scalar" or
        #: "vectorized"); None before the first call.
        self.last_engine: "Optional[str]" = None
        self.server_replicas = {
            server: tuple(replicas)
            for server, replicas in (server_replicas or {}).items()
            if len(replicas) > 1
        }
        for server in self.server_replicas:
            if server not in tree or not tree.node(server).is_server:
                raise ValueError(f"{server!r} is not a server of this tree")
        self._operator_ids = tuple(op.node_id for op in tree.operators())
        self._all_hosts = tuple(self.hosts)
        #: Persistent cell-structure cache shared across plan calls (the
        #: grids are placement-independent, see
        #: :class:`repro.dataflow.critical.BatchMoveEvaluator`).
        self._grid_cache: dict = {}

    def plan(
        self,
        estimator: BandwidthEstimator,
        initial: Placement,
        *,
        seed: "Optional[int]" = None,
        tracer=None,
        now: float = 0.0,
    ) -> PlanResult:
        """Run the search from ``initial`` using ``estimator`` for bandwidths.

        ``seed`` is accepted for :class:`~repro.placement.base.Planner`
        uniformity (the search is deterministic and ignores it).  The
        vectorized engine is used when the estimator is snapshot-safe;
        both engines return bit-identical results.
        """
        if snapshot_safe(estimator):
            self.last_engine = "vectorized"
            return self._plan_vectorized(
                estimator, initial, tracer=tracer, now=now
            )
        self.last_engine = "scalar"
        return self._plan_scalar(estimator, initial, tracer=tracer, now=now)

    def _plan_scalar(
        self,
        estimator: BandwidthEstimator,
        initial: Placement,
        *,
        tracer=None,
        now: float = 0.0,
    ) -> PlanResult:
        """The reference per-candidate search (the paper's pseudocode)."""
        recorder = RecordingEstimator(estimator)
        current = initial
        current_cost = critical_path(
            self.tree, current, self.cost_model, recorder
        ).cost
        rounds = 0
        candidates = 0

        for _ in range(self.max_rounds):
            rounds += 1
            path = critical_path(self.tree, current, self.cost_model, recorder)
            evaluator = SingleMoveEvaluator(
                self.tree, current, self.cost_model, recorder
            )
            best_move: "tuple[str, str] | None" = None
            best_cost = current_cost
            for node_id, candidate_hosts in self._candidate_moves(path, current):
                current_host = current.host_of(node_id)
                for host in candidate_hosts:
                    if host == current_host:
                        continue
                    candidates += 1
                    cost = evaluator.cost_of_move(node_id, host)
                    # Paper: "if (C_min <= C')" — ties move toward the
                    # newer candidate, strict improvement gates adoption.
                    if cost <= best_cost:
                        best_cost = cost
                        best_move = (node_id, host)
            if best_cost < current_cost and best_move is not None:
                current = current.with_move(*best_move)
                current_cost = best_cost
            else:
                break

        tracer = ensure_tracer(tracer)
        if tracer.enabled:
            tracer.emit(
                PLANNER_SEARCH,
                now,
                algorithm=self.name,
                rounds=rounds,
                candidates=candidates,
                links=len(recorder.queried),
                cost=current_cost,
            )
        return PlanResult(
            placement=current,
            cost=current_cost,
            rounds=rounds,
            candidates_evaluated=candidates,
            links_queried=frozenset(recorder.queried),
            algorithm=self.name,
        )

    def _plan_vectorized(
        self,
        estimator: BandwidthEstimator,
        initial: Placement,
        *,
        tracer=None,
        now: float = 0.0,
    ) -> PlanResult:
        """Batch-priced search, bit-identical to :meth:`_plan_scalar`.

        One :class:`BatchMoveEvaluator` carries the round state across
        the whole call (the scalar path rebuilds its evaluator every
        round); candidate enumeration, tie-breaks and link recording
        replicate the scalar loop exactly.
        """
        evaluator = BatchMoveEvaluator(
            self.tree,
            initial,
            self.cost_model,
            estimator,
            self.hosts,
            grid_cache=self._grid_cache,
        )
        current = initial
        current_cost = evaluator.critical_path().cost
        rounds = 0
        candidates = 0

        for _ in range(self.max_rounds):
            rounds += 1
            path = evaluator.critical_path()
            cells, best_cost, best_move = evaluator.price_moves(
                self._candidate_moves(path, current), current_cost
            )
            candidates += cells
            if best_cost < current_cost and best_move is not None:
                current = current.with_move(*best_move)
                evaluator.apply_move(*best_move)
                current_cost = best_cost
            else:
                break

        links = evaluator.links_queried()
        tracer = ensure_tracer(tracer)
        if tracer.enabled:
            tracer.emit(
                PLANNER_SEARCH,
                now,
                algorithm=self.name,
                rounds=rounds,
                candidates=candidates,
                links=len(links),
                cost=current_cost,
            )
        return PlanResult(
            placement=current,
            cost=current_cost,
            rounds=rounds,
            candidates_evaluated=candidates,
            links_queried=links,
            algorithm=self.name,
        )

    def _candidate_moves(
        self, path, placement: Placement
    ) -> list[tuple[str, tuple[str, ...]]]:
        """Nodes whose relocation can shorten the critical path.

        These are the operators *on* the path plus every operator placed
        on a host the path visits: under the single-NIC serialization
        model a path's cost includes its hosts' full occupancy, so
        shedding an off-path operator from a visited host shortens the
        path too.  (With download-all's initialization the critical path
        visits the client, so all operators start as candidates — which
        is how the search escapes the all-at-client congestion.)

        Operators may go to any host; replicated servers may switch to
        any of their replica hosts.
        """
        path_hosts = {placement.host_of(node_id) for node_id in path.nodes}
        candidates = set(path.operators)
        for op_id in self._operator_ids:
            if placement.host_of(op_id) in path_hosts:
                candidates.add(op_id)
        all_hosts = self._all_hosts
        moves = [(node_id, all_hosts) for node_id in sorted(candidates)]
        for server, replicas in sorted(self.server_replicas.items()):
            if server in path.nodes or placement.host_of(server) in path_hosts:
                moves.append((server, replicas))
        return moves
