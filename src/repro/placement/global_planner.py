"""The global on-line planner (§2.2).

"This algorithm uses the one-shot algorithm as a procedure to compute new
placements; the only modification is in the initialization step where the
*current placement* is used as the initial placement."  The client runs it
periodically; the engine's barrier protocol installs the results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.dataflow.cost import BandwidthEstimator, CostModel
from repro.dataflow.placement import Placement
from repro.dataflow.tree import CombinationTree
from repro.obs.events import PLANNER_SEARCH
from repro.obs.tracer import ensure_tracer
from repro.placement.base import PlanResult
from repro.placement.one_shot import OneShotPlanner


class GlobalPlanner:
    """Periodic re-planning warm-started from the running placement."""

    name = "global"

    def __init__(
        self,
        tree: CombinationTree,
        hosts: Sequence[str],
        cost_model: CostModel,
        max_rounds: int = 200,
        server_replicas: "dict[str, tuple[str, ...]] | None" = None,
    ) -> None:
        self._one_shot = OneShotPlanner(
            tree, hosts, cost_model, max_rounds, server_replicas
        )

    @property
    def last_engine(self):
        """Engine used by the most recent ``plan`` call (None before)."""
        return self._one_shot.last_engine

    @property
    def tree(self) -> CombinationTree:
        return self._one_shot.tree

    @property
    def hosts(self) -> list[str]:
        return list(self._one_shot.hosts)

    @property
    def cost_model(self) -> CostModel:
        return self._one_shot.cost_model

    def plan(
        self,
        estimator: BandwidthEstimator,
        initial: Placement,
        *,
        seed: Optional[int] = None,
        tracer=None,
        now: float = 0.0,
    ) -> PlanResult:
        """One re-planning round from the *current* placement."""
        result = replace(
            self._one_shot.plan(estimator, initial=initial, seed=seed),
            algorithm=self.name,
        )
        tracer = ensure_tracer(tracer)
        if tracer.enabled:
            tracer.emit(
                PLANNER_SEARCH,
                now,
                algorithm=self.name,
                rounds=result.rounds,
                candidates=result.candidates_evaluated,
                links=len(result.links_queried),
                cost=result.cost,
            )
        return result
