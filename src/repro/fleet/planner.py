"""The fleet planner family: any per-query planner, coordinated.

:class:`FleetPlanner` implements the :class:`~repro.placement.base.Planner`
protocol by wrapping an inner planner (global, one-shot, local rules,
download-all) with the fleet coordinator's two levers:

* **link-claim-aware cost estimation** — the inner search sees the
  coordinator's residual bandwidth (``raw / (1 + other claimants)``)
  instead of the raw shared monitoring estimate, so plans route around
  links other queries already saturate;
* **relocation-budget arbitration** — a proposed placement change must
  win the coordinator's token-bucket grant; a denied proposal collapses
  to the starting placement, which the engine's controllers treat as
  "no change" (the global controller early-returns on placement
  equality, the local controller keeps the operator in place).

The wrapper emits exactly one ``planner.search`` event per ``plan``
call under its own algorithm name (the inner search runs untraced), so
trace replay and planner-effort accounting see the fleet planner as a
first-class algorithm.

The inner planner's engine choice passes straight through: a residual
view wrapping a snapshot-safe estimator is itself snapshot-safe (the
claim map is frozen per wrap), so coordinated controller replans run on
the vectorized batch engine, and each ``plan`` call's fresh
residual view gets a fresh bandwidth snapshot.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dataflow.critical import placement_cost
from repro.dataflow.placement import Placement
from repro.obs.events import PLANNER_SEARCH
from repro.obs.tracer import ensure_tracer
from repro.placement.base import Planner, PlanResult
from repro.placement.local_rules import LocalSiteDecision

from repro.fleet.coordinator import FleetCoordinator


class FleetPlanner:
    """Coordinate one query's inner planner through the fleet arbiter.

    ``stage`` separates the two planning opportunities: ``"initial"``
    (t=0 placement, residual estimation only — there is nothing placed
    yet to relocate) and ``"controller"`` (run-time replanning, residual
    estimation *and* relocation arbitration).
    """

    def __init__(
        self,
        inner: Planner,
        coordinator: FleetCoordinator,
        query_id: str,
        *,
        stage: str = "controller",
    ) -> None:
        if stage not in ("initial", "controller"):
            raise ValueError(f"unknown fleet planning stage {stage!r}")
        self.inner = inner
        self.coordinator = coordinator
        self.query_id = query_id
        self.stage = stage
        self.name = coordinator.policy.planner_name

    # The engine's controllers reach through the planner for the cost
    # model, the tree and similar inner attributes; forward anything
    # this wrapper does not define itself.
    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def plan(
        self,
        estimator,
        initial: Placement,
        *,
        seed: Optional[int] = None,
        tracer=None,
        now: float = 0.0,
    ) -> PlanResult:
        residual = self.coordinator.residual_estimator(self.query_id, estimator)
        result = self.inner.plan(
            residual, initial, seed=seed, tracer=None, now=now
        )
        cost = result.cost
        placement = result.placement
        if self.stage == "controller" and placement != initial:
            granted = self.coordinator.arbitrate(
                self.query_id, initial, placement, now, tracer
            )
            if not granted:
                placement = initial
                cost = placement_cost(
                    self.inner.tree, initial, self.inner.cost_model, residual
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
                cost=cost,
            )
        return PlanResult(
            placement=placement,
            cost=cost,
            rounds=result.rounds,
            candidates_evaluated=result.candidates_evaluated,
            links_queried=result.links_queried,
            algorithm=self.name,
        )

    def decide(
        self,
        *,
        current_host: str,
        producer_hosts: Sequence[str],
        producer_sizes: Sequence[float],
        consumer_host: str,
        output_size: float,
        estimator,
        extra_candidates: Sequence[str] = (),
        compute_seconds: float = 0.0,
    ) -> LocalSiteDecision:
        """Coordinated per-operator decision for the local algorithm.

        The inner rule evaluates candidate sites under residual
        bandwidth; a winning move must then clear the arbiter, else the
        decision collapses to "stay put" (best == current).
        """
        residual = self.coordinator.residual_estimator(self.query_id, estimator)
        decision = self.inner.decide(
            current_host=current_host,
            producer_hosts=producer_hosts,
            producer_sizes=producer_sizes,
            consumer_host=consumer_host,
            output_size=output_size,
            estimator=residual,
            extra_candidates=extra_candidates,
            compute_seconds=compute_seconds,
        )
        if not decision.should_move:
            return decision
        granted = self.coordinator.arbitrate_operator_move(
            self.query_id, current_host, decision.best_site
        )
        if granted:
            return decision
        return LocalSiteDecision(
            best_site=current_host,
            best_cost=decision.current_cost,
            current_cost=decision.current_cost,
            costs=decision.costs,
        )
