"""The paper's placement algorithms (§2).

Four policies, all implementing the :class:`~repro.placement.base.Planner`
protocol (construct them uniformly with :func:`planner_for`):

* :class:`~repro.placement.download_all.DownloadAllPlanner` — every
  operator at the client; the paper's base case ("currently the dominant
  mode of combining data over wide-area networks").
  :func:`~repro.placement.download_all.download_all_placement` builds the
  placement itself.
* :class:`~repro.placement.one_shot.OneShotPlanner` — iterative critical-
  path shortening from the download-all start, run once at t=0 (§2.1).
* :class:`~repro.placement.global_planner.GlobalPlanner` — the one-shot
  procedure warm-started from the *current* placement; used periodically
  by the centralized on-line algorithm (§2.2).  The run-time barrier
  coordination lives in :mod:`repro.engine`.
* :class:`~repro.placement.local_rules.LocalRulesPlanner` — the
  distributed local algorithm (§2.3): critical-path self-detection from
  "later" marks and local-critical-path site selection, packaged as
  pure decision rules plus a wavefront-pass ``plan``.  The epoch
  wavefront and vector propagation live in :mod:`repro.engine`.
"""

from typing import Callable, Optional, Sequence

from repro.dataflow.cost import CostModel
from repro.dataflow.tree import CombinationTree
from repro.placement.base import Planner, PlanResult
from repro.placement.download_all import DownloadAllPlanner, download_all_placement
from repro.placement.one_shot import OneShotPlanner
from repro.placement.global_planner import GlobalPlanner
from repro.placement.local_rules import (
    LocalRulesPlanner,
    LocalSiteDecision,
    choose_local_site,
    is_on_critical_path,
)

#: Planner-factory signature: ``(tree, hosts, cost_model, *,
#: server_replicas=None, max_rounds=200, extra_candidates=0) -> Planner``.
PlannerFactory = Callable[..., Planner]

_PLANNER_REGISTRY: "dict[str, PlannerFactory]" = {}


def register_planner(name: str, factory: PlannerFactory) -> None:
    """Register a planner factory under an algorithm name.

    Registration is idempotent only for the identical factory; a second
    registration of the same name with a different factory raises, so a
    stray import cannot silently shadow a built-in algorithm.
    """
    existing = _PLANNER_REGISTRY.get(name)
    if existing is not None and existing is not factory:
        raise ValueError(f"planner {name!r} already registered")
    _PLANNER_REGISTRY[name] = factory


def planner_registry() -> "tuple[str, ...]":
    """The registered algorithm names, sorted for determinism."""
    return tuple(sorted(_PLANNER_REGISTRY))


def _make_one_shot(tree, hosts, cost_model, *, server_replicas=None,
                   max_rounds=200, extra_candidates=0):
    return OneShotPlanner(tree, hosts, cost_model, max_rounds,
                          server_replicas)


def _make_global(tree, hosts, cost_model, *, server_replicas=None,
                 max_rounds=200, extra_candidates=0):
    return GlobalPlanner(tree, hosts, cost_model, max_rounds,
                         server_replicas)


def _make_local(tree, hosts, cost_model, *, server_replicas=None,
                max_rounds=200, extra_candidates=0):
    return LocalRulesPlanner(
        tree, hosts, cost_model, extra_candidates=extra_candidates
    )


def _make_download_all(tree, hosts, cost_model, *, server_replicas=None,
                       max_rounds=200, extra_candidates=0):
    return DownloadAllPlanner(tree, hosts, cost_model)


register_planner(OneShotPlanner.name, _make_one_shot)
register_planner(GlobalPlanner.name, _make_global)
register_planner(LocalRulesPlanner.name, _make_local)
register_planner(DownloadAllPlanner.name, _make_download_all)


def planner_for(
    algorithm,
    tree: CombinationTree,
    hosts: Sequence[str],
    cost_model: CostModel,
    *,
    server_replicas: "Optional[dict[str, tuple[str, ...]]]" = None,
    max_rounds: int = 200,
    extra_candidates: int = 0,
) -> Planner:
    """Construct the planner for an algorithm name (or enum).

    ``algorithm`` may be a string (``"download-all"``, ``"one-shot"``,
    ``"global"``, ``"local"``, or any name added through
    :func:`register_planner`, e.g. the ``fleet-*`` family) or anything
    with a matching ``.value`` (e.g.
    :class:`repro.engine.config.Algorithm`); keying on the value keeps
    this module import-independent of the engine.
    """
    key = getattr(algorithm, "value", algorithm)
    factory = _PLANNER_REGISTRY.get(key)
    if factory is None and isinstance(key, str) and key.startswith("fleet-"):
        import repro.fleet  # noqa: F401  (registers the fleet family)

        factory = _PLANNER_REGISTRY.get(key)
    if factory is None:
        raise ValueError(f"unknown placement algorithm {algorithm!r}")
    return factory(
        tree,
        hosts,
        cost_model,
        server_replicas=server_replicas,
        max_rounds=max_rounds,
        extra_candidates=extra_candidates,
    )


__all__ = [
    "DownloadAllPlanner",
    "GlobalPlanner",
    "LocalRulesPlanner",
    "LocalSiteDecision",
    "OneShotPlanner",
    "Planner",
    "PlanResult",
    "choose_local_site",
    "download_all_placement",
    "is_on_critical_path",
    "planner_for",
    "planner_registry",
    "register_planner",
]
