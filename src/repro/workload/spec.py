"""Workload specifications: which queries run, for whom, and when.

A :class:`WorkloadSpec` describes a *fleet* of combination queries over
one shared wide-area network: a client population, each client's query
mix (weighted :class:`QueryClass` entries — possibly different placement
algorithms, tree sizes, or spec overrides per class), and an arrival
discipline (:mod:`repro.workload.arrivals`).  Everything derives from
the workload ``seed``, so a spec is a complete, reproducible experiment.

The per-query :class:`~repro.engine.config.SimulationSpec` built by
:meth:`WorkloadSpec.query_spec` reuses the single-query machinery
unchanged; :meth:`WorkloadSpec.from_simulation_spec` wraps an existing
spec as a one-client, one-query workload whose execution is
bit-identical to :func:`repro.engine.simulation.run_simulation` (pinned
by the identity test).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Any, Mapping, Optional, Union

import numpy as np

from repro.engine.config import Algorithm, SimulationSpec
from repro.experiments.config import ExperimentConfig, make_configuration
from repro.faults.plan import FaultPlan
from repro.fleet import FleetPolicy
from repro.monitor.system import MonitoringConfig
from repro.traces.study import TraceLibrary
from repro.traces.trace import BandwidthTrace
from repro.workload.arrivals import Arrivals, ClosedLoop
from repro.workload.overload import OverloadPolicy

#: SimulationSpec fields that are structural (handled explicitly when a
#: query spec is assembled) rather than free per-class overrides.
_STRUCTURAL_FIELDS = frozenset(
    {
        "algorithm",
        "tree_shape",
        "num_servers",
        "link_traces",
        "server_hosts",
        "client_host",
        "images_per_server",
        "faults",
    }
)


def query_id_for(client_index: int, ordinal: int) -> str:
    """The canonical query id: ``"c{client}:{ordinal}"``."""
    return f"c{client_index}:{ordinal}"


def client_of(query_id: str) -> str:
    """The client name (``"c{index}"``) encoded in a query id."""
    return query_id.split(":", 1)[0]


@dataclass(frozen=True)
class QueryClass:
    """One kind of query in the mix.

    ``overrides`` are extra :class:`SimulationSpec` fields applied to
    every query of this class (a mapping is accepted and normalized to a
    sorted tuple so the class stays hashable and picklable).
    """

    name: str
    algorithm: Algorithm
    #: Relative probability of a client's query being of this class.
    weight: float = 1.0
    #: Servers this class's tree combines; ``None`` uses the workload's
    #: full pool, a smaller count draws a per-query subset of it.
    num_servers: Optional[int] = None
    #: ``None`` inherits the workload's ``images_per_server``.
    images_per_server: Optional[int] = None
    #: Abort queries of this class that run longer than this many
    #: seconds from arrival (queueing included); ``None`` never aborts.
    #: Engages the overload controller (see
    #: :mod:`repro.workload.overload`).
    deadline: Optional[float] = None
    #: Latency SLO target in seconds: completed queries at or under it
    #: count toward the class's ``slo_attainment`` in the summary's
    #: resilience block.  Pure accounting — never changes execution.
    slo_target: Optional[float] = None
    overrides: Any = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        if isinstance(self.overrides, Mapping):
            object.__setattr__(
                self, "overrides", tuple(sorted(self.overrides.items()))
            )
        else:
            object.__setattr__(self, "overrides", tuple(self.overrides))
        if not self.weight > 0:
            raise ValueError(f"class weight must be positive, got {self.weight!r}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline!r}")
        if self.slo_target is not None and self.slo_target <= 0:
            raise ValueError(
                f"slo_target must be positive, got {self.slo_target!r}"
            )
        bad = {k for k, _ in self.overrides} & _STRUCTURAL_FIELDS
        if bad:
            raise ValueError(
                f"structural fields {sorted(bad)} cannot be class overrides"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """A concurrent multi-query workload over one shared network."""

    #: The query mix; a single entry means every query is of that class.
    classes: tuple[QueryClass, ...]
    num_clients: int = 1
    queries_per_client: int = 1
    arrivals: Arrivals = field(default_factory=ClosedLoop)
    #: Master seed for arrivals, mix draws and per-query seeds.
    seed: int = 0

    # ---- shared substrate (network, hosts, monitoring) ----------------
    num_servers: int = 8
    tree_shape: str = "binary"
    images_per_server: int = 180
    #: Network configuration draw, exactly as in the experiments module:
    #: configuration ``config_index`` of the study seeded by
    #: ``network_seed`` (ignored when ``link_traces`` is given).
    network_seed: int = 1998
    config_index: int = 0
    study_seed: int = 1998
    library: Optional[TraceLibrary] = None
    #: Explicit traces per canonical host pair; bypasses the study draw.
    link_traces: Optional[Mapping[tuple[str, str], BandwidthTrace]] = None
    #: Explicit server-host names (requires ``link_traces``); ``None``
    #: uses the conventional ``h0..h{num_servers-1}``.
    server_hosts_override: Optional[tuple[str, ...]] = None
    client_host: str = "client"
    fault_plan: Optional[FaultPlan] = None
    #: Admission/retry/breaker limits (:class:`~repro.workload.
    #: overload.OverloadPolicy`); ``None`` (or a null policy with no
    #: class deadlines) admits everything and is bit-identical to the
    #: pre-overload engine.
    overload: Optional["OverloadPolicy"] = None
    #: Fleet-aware joint planning (:class:`~repro.fleet.FleetPolicy`);
    #: ``None`` keeps every query planning blindly against raw monitor
    #: estimates, bit-identical to the pre-fleet engine.
    fleet: Optional[FleetPolicy] = None
    monitoring: MonitoringConfig = field(default_factory=MonitoringConfig)
    startup_cost: float = 0.050
    nic_capacity: int = 1
    disk_rate: float = 3 * 1024 * 1024
    seed_initial_snapshot: bool = True
    max_sim_time: float = 10 * 86400.0
    #: Restrict the schedule to these client indices (one shard of the
    #: full ``num_clients`` population).  Seeds, query ids and arrival
    #: streams stay those of the full run; ``None`` schedules everyone.
    client_subset: Optional[tuple[int, ...]] = None
    #: ``None`` picks exact metrics for small fleets and streaming
    #: sketches above ``exact_metrics_threshold``; ``"exact"`` or
    #: ``"streaming"`` forces one path.
    metrics_mode: Optional[str] = None
    #: Largest scheduled-query count still summarized exactly
    #: (``workload_schema: 1``) when ``metrics_mode`` is ``None``.
    exact_metrics_threshold: int = 1000
    #: Relative error bound of the streaming quantile sketches.
    metrics_relative_error: float = 0.01

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("a workload needs at least one query class")
        object.__setattr__(self, "classes", tuple(self.classes))
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate query class names in {names!r}")
        if self.num_clients < 0:
            raise ValueError("num_clients must be non-negative")
        if self.queries_per_client < 1:
            raise ValueError("queries_per_client must be >= 1")
        if self.num_servers < 2:
            raise ValueError("need >= 2 servers")
        for qclass in self.classes:
            if qclass.num_servers is not None and not (
                2 <= qclass.num_servers <= self.num_servers
            ):
                raise ValueError(
                    f"class {qclass.name!r} wants {qclass.num_servers} servers; "
                    f"the workload pool has {self.num_servers}"
                )
        if self.server_hosts_override is not None and self.link_traces is None:
            raise ValueError("server_hosts_override requires explicit link_traces")
        if self.client_subset is not None:
            subset = tuple(sorted({int(i) for i in self.client_subset}))
            for index in subset:
                if not (0 <= index < self.num_clients):
                    raise ValueError(
                        f"client_subset index {index} outside the "
                        f"0..{self.num_clients - 1} population"
                    )
            object.__setattr__(self, "client_subset", subset)
        if self.metrics_mode not in (None, "exact", "streaming"):
            raise ValueError(
                f"metrics_mode must be None, 'exact' or 'streaming', "
                f"got {self.metrics_mode!r}"
            )
        if self.exact_metrics_threshold < 0:
            raise ValueError("exact_metrics_threshold must be >= 0")
        if not (0.0 < self.metrics_relative_error < 1.0):
            raise ValueError("metrics_relative_error must be in (0, 1)")
        if self.fleet is not None and not isinstance(self.fleet, FleetPolicy):
            raise ValueError(
                f"fleet must be a FleetPolicy or None, got {self.fleet!r}"
            )

    # ---- derived ------------------------------------------------------
    @property
    def server_hosts(self) -> tuple[str, ...]:
        if self.server_hosts_override is not None:
            return self.server_hosts_override
        return tuple(f"h{i}" for i in range(self.num_servers))

    @property
    def all_hosts(self) -> tuple[str, ...]:
        return (*self.server_hosts, self.client_host)

    @property
    def client_indices(self) -> tuple[int, ...]:
        """The client indices this spec actually schedules."""
        if self.client_subset is not None:
            return self.client_subset
        return tuple(range(self.num_clients))

    @property
    def total_queries(self) -> int:
        return len(self.client_indices) * self.queries_per_client

    @property
    def overload_engaged(self) -> bool:
        """True when the engine must route arrivals through the
        :class:`~repro.workload.overload.OverloadController` (a non-null
        policy, or any class with a deadline)."""
        if self.overload is not None and not self.overload.is_null():
            return True
        return any(qclass.deadline is not None for qclass in self.classes)

    @property
    def overload_policy(self) -> OverloadPolicy:
        """The effective policy (a null one when nothing is set)."""
        return self.overload if self.overload is not None else OverloadPolicy()

    @property
    def fleet_engaged(self) -> bool:
        """True when the engine must route planning through a
        :class:`~repro.fleet.FleetCoordinator`."""
        return self.fleet is not None

    def build_metrics(self):
        """The :class:`~repro.workload.sink.MetricsSink` for this fleet.

        Chosen by ``metrics_mode`` / ``exact_metrics_threshold``; sinks
        of shards built from the same spec are mutually mergeable.
        """
        # Imported lazily: repro.workload.sink imports this module.
        from repro.workload.sink import fleet_metrics_for

        return fleet_metrics_for(
            scheduled=self.total_queries,
            num_clients=self.num_clients,
            mode=self.metrics_mode,
            exact_threshold=self.exact_metrics_threshold,
            relative_error=self.metrics_relative_error,
        )

    def resolve_links(self) -> Mapping[tuple[str, str], BandwidthTrace]:
        """The shared network's trace per canonical host pair."""
        if self.link_traces is not None:
            return self.link_traces
        cfg = ExperimentConfig(
            num_servers=self.num_servers,
            seed=self.network_seed,
            study_seed=self.study_seed,
            library=self.library,
        )
        return make_configuration(cfg, self.config_index)

    # ---- the schedule -------------------------------------------------
    def class_for(self, client_index: int, ordinal: int) -> QueryClass:
        """The query class drawn for one (client, ordinal) slot.

        With a single class no randomness is consumed; otherwise each
        client draws its sequence from its own ``(seed, client)`` stream,
        weighted by class weights.
        """
        if len(self.classes) == 1:
            return self.classes[0]
        rng = np.random.default_rng((self.seed, 6211, client_index))
        weights = np.array([c.weight for c in self.classes], dtype=float)
        weights /= weights.sum()
        picks = rng.choice(len(self.classes), size=ordinal + 1, p=weights)
        return self.classes[int(picks[-1])]

    def mix_for(self, client_index: int) -> list[QueryClass]:
        """All ``queries_per_client`` class draws for one client."""
        if len(self.classes) == 1:
            return [self.classes[0]] * self.queries_per_client
        rng = np.random.default_rng((self.seed, 6211, client_index))
        weights = np.array([c.weight for c in self.classes], dtype=float)
        weights /= weights.sum()
        picks = rng.choice(
            len(self.classes), size=self.queries_per_client, p=weights
        )
        return [self.classes[int(i)] for i in picks]

    def query_servers(
        self, qclass: QueryClass, client_index: int, ordinal: int
    ) -> tuple[str, ...]:
        """The server hosts one query's tree combines."""
        pool = self.server_hosts
        count = qclass.num_servers or self.num_servers
        if count == len(pool):
            return pool
        rng = np.random.default_rng((self.seed, 5077, client_index, ordinal))
        picks = rng.choice(len(pool), size=count, replace=False)
        return tuple(pool[i] for i in sorted(picks))

    def query_spec(
        self, qclass: QueryClass, client_index: int, ordinal: int
    ) -> SimulationSpec:
        """The full single-query spec for one (client, ordinal) slot.

        Per-query seeds derive from the workload seed and the slot, so
        two queries of the same class still draw distinct workloads;
        class ``overrides`` (e.g. a pinned ``workload_seed``) win.
        """
        base_seed = self.seed + 101 * client_index + ordinal
        kwargs: dict[str, Any] = dict(
            algorithm=qclass.algorithm,
            tree_shape=self.tree_shape,
            num_servers=qclass.num_servers or self.num_servers,
            link_traces=self.resolve_links(),
            server_hosts=self.query_servers(qclass, client_index, ordinal),
            client_host=self.client_host,
            images_per_server=qclass.images_per_server or self.images_per_server,
            workload_seed=base_seed,
            control_seed=base_seed,
            startup_cost=self.startup_cost,
            nic_capacity=self.nic_capacity,
            disk_rate=self.disk_rate,
            monitoring=self.monitoring,
            seed_initial_snapshot=self.seed_initial_snapshot,
            max_sim_time=self.max_sim_time,
        )
        kwargs.update(dict(qclass.overrides))
        return SimulationSpec(**kwargs)

    # ---- adapters -----------------------------------------------------
    @classmethod
    def from_experiment_config(
        cls,
        config: ExperimentConfig,
        classes: tuple[QueryClass, ...],
        *,
        config_index: int = 0,
        **kwargs: Any,
    ) -> "WorkloadSpec":
        """A workload over the substrate an :class:`ExperimentConfig`
        describes.

        The shared network is configuration ``config_index`` of the same
        study a single-query sweep would use (same seeds, same library),
        and the config's per-run knobs (``relocation_period``,
        ``local_extra_candidates``) become per-class overrides unless a
        class already pins them.  Remaining workload fields —
        ``num_clients``, ``arrivals``, ``seed``, ... — pass through
        ``kwargs``.
        """
        defaults = {
            "relocation_period": config.relocation_period,
            "local_extra_candidates": config.local_extra_candidates,
        }
        merged_classes = []
        for qclass in classes:
            overrides = dict(defaults)
            overrides.update(dict(qclass.overrides))
            merged_classes.append(replace(qclass, overrides=overrides))
        kwargs.setdefault("fault_plan", config.fault_plan)
        return cls(
            classes=tuple(merged_classes),
            num_servers=config.num_servers,
            tree_shape=config.tree_shape,
            images_per_server=config.images_per_server,
            network_seed=config.seed,
            config_index=config_index,
            study_seed=config.study_seed,
            library=config.library,
            **kwargs,
        )

    @classmethod
    def from_simulation_spec(cls, spec: SimulationSpec) -> "WorkloadSpec":
        """Wrap a single-query spec as a one-client, one-query workload.

        Running the result through the workload engine is bit-identical
        to ``run_simulation(spec)`` (metrics, and trace events modulo the
        ``query_id`` tag) — the identity test pins this.
        """
        overrides = {
            f.name: getattr(spec, f.name)
            for f in dataclass_fields(SimulationSpec)
            if f.name not in _STRUCTURAL_FIELDS
        }
        qclass = QueryClass(
            name=spec.algorithm.value,
            algorithm=spec.algorithm,
            overrides=overrides,
        )
        return cls(
            classes=(qclass,),
            num_clients=1,
            queries_per_client=1,
            arrivals=ClosedLoop(think_time=0.0),
            seed=spec.workload_seed,
            num_servers=spec.num_servers,
            tree_shape=spec.tree_shape,
            images_per_server=spec.images_per_server,
            link_traces=spec.link_traces,
            server_hosts_override=tuple(spec.server_hosts),
            client_host=spec.client_host,
            fault_plan=spec.faults,
            monitoring=spec.monitoring,
            startup_cost=spec.startup_cost,
            nic_capacity=spec.nic_capacity,
            disk_rate=spec.disk_rate,
            seed_initial_snapshot=spec.seed_initial_snapshot,
            max_sim_time=spec.max_sim_time,
        )
