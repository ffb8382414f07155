"""Simulation configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.app.composition import CompositionSpec
from repro.faults.plan import FaultPlan
from repro.monitor.system import MonitoringConfig
from repro.traces.trace import BandwidthTrace


class Algorithm(str, enum.Enum):
    """The four placement policies evaluated by the paper."""

    DOWNLOAD_ALL = "download-all"
    ONE_SHOT = "one-shot"
    GLOBAL = "global"
    LOCAL = "local"

    @property
    def is_online(self) -> bool:
        """True for the policies that relocate operators during the run."""
        return self in (Algorithm.GLOBAL, Algorithm.LOCAL)


@dataclass(frozen=True)
class SimulationSpec:
    """Everything needed to run one simulation.

    ``link_traces`` maps canonical host pairs (sorted 2-tuples of host
    names) to bandwidth traces; it must cover the complete graph over
    ``server_hosts + [client_host]``.
    """

    algorithm: Algorithm
    #: Tree shape: "binary" (complete binary tree) or "left-deep".
    tree_shape: str
    num_servers: int
    link_traces: Mapping[tuple[str, str], BandwidthTrace]
    #: Host names; server ``s{i}`` is pinned to ``server_hosts[i]``.
    server_hosts: tuple[str, ...]
    client_host: str = "client"

    images_per_server: int = 180
    mean_image_size: float = 128 * 1024.0
    image_rel_std: float = 0.25
    workload_seed: int = 0

    #: Per-message startup cost, seconds (§4).
    startup_cost: float = 0.050
    #: Concurrent transfers per host (paper assumption 2: one; the paper
    #: notes the assumption can be relaxed — this knob does).
    nic_capacity: int = 1
    #: Dataset replicas per server (paper assumption 3: data is not
    #: replicated, i.e. 1).  With R > 1 each server's image sequence also
    #: lives on R-1 other hosts, and the one-shot/global planners may
    #: serve it from any replica (a server "move" is then just a switch of
    #: serving replica — the data is already there).  The local algorithm
    #: keeps servers static, as in the paper.
    replication_factor: int = 1
    #: Server disk bandwidth, bytes/second (§4).
    disk_rate: float = 3 * 1024 * 1024
    compose: CompositionSpec = field(default_factory=CompositionSpec)
    monitoring: MonitoringConfig = field(default_factory=MonitoringConfig)

    #: On-line algorithms: seconds between relocation decisions (§4 uses
    #: 10 minutes for the main experiments; Figure 9 sweeps it).
    relocation_period: float = 600.0
    #: Local algorithm: number of extra random candidate sites (Figure 7).
    local_extra_candidates: int = 0
    #: Local algorithm: probe stale links among the base candidate sites
    #: (producers'/consumer's hosts) before deciding.  The operator's own
    #: links are fresh from passive monitoring either way; this covers the
    #: producer→candidate cross links.
    local_probe_base: bool = False
    #: Seed for the local algorithm's random candidate choices.
    control_seed: int = 0

    #: Serialized operator state moved on relocation, bytes (light moves).
    op_state_bytes: float = 4 * 1024.0
    #: Operators demand the next partition right after dispatching
    #: (pipelining); ablation switch.
    prefetch: bool = True
    #: Barrier messages overtake queued data (paper behaviour); ablation
    #: switch sets them to bulk-data priority instead.
    barrier_priority: bool = True
    #: Global algorithm: refresh every link the search consults *before*
    #: planning (expensive; ablation only).  The default flow plans on
    #: cached estimates and then validates just the chosen placement's
    #: links with probes before committing — an order of magnitude less
    #: probe traffic for equal or better plan quality.
    probe_before_planning: bool = False
    #: Ablation: planners see true instantaneous link bandwidths instead
    #: of monitoring estimates (isolates algorithm quality from
    #: measurement error; no probe traffic is generated).
    oracle_monitoring: bool = False
    #: Global algorithm: install a new plan only if its modeled cost beats
    #: the current placement's by this relative margin (hysteresis against
    #: estimate jitter).
    replan_threshold: float = 0.10
    #: Local algorithm: move only if the local critical path improves by
    #: this relative margin.
    local_move_threshold: float = 0.05
    #: Give every host a fresh measurement of every link at t=0 (the
    #: "information available at the beginning" the one-shot algorithm
    #: uses).
    seed_initial_snapshot: bool = True

    #: Hard wall on simulated time (guards against pathological configs).
    max_sim_time: float = 10 * 86400.0

    #: Optional fault-injection plan; ``None`` (or an empty plan) keeps
    #: every fault/retry code path dormant — the run is bit-identical to
    #: one built before faults existed.
    faults: Optional[FaultPlan] = None
    #: Two-phase relocation: abort and roll back to the source placement
    #: if the state transfer has not committed within this many seconds.
    relocation_timeout: float = 600.0
    #: Planner degradation: below this fraction of fresh link estimates
    #: the global controller declines to replan.
    degraded_view_threshold: float = 0.5
    #: Planner degradation: an estimate older than this (seconds) no
    #: longer counts toward view coverage.
    degraded_estimate_horizon: float = 1800.0
    #: Planner degradation: after this many consecutive degraded rounds
    #: the global controller falls back to the download-all placement.
    degraded_rounds_to_download_all: int = 3

    def __post_init__(self) -> None:
        if self.tree_shape not in ("binary", "left-deep"):
            raise ValueError(f"unknown tree shape {self.tree_shape!r}")
        if self.num_servers < 2:
            raise ValueError(f"need >=2 servers, got {self.num_servers!r}")
        if len(self.server_hosts) != self.num_servers:
            raise ValueError(
                f"{self.num_servers} servers but {len(self.server_hosts)} hosts"
            )
        if self.client_host in self.server_hosts:
            raise ValueError("client host must differ from server hosts")
        if self.relocation_period <= 0:
            raise ValueError("relocation_period must be positive")
        if self.local_extra_candidates < 0:
            raise ValueError("local_extra_candidates must be >= 0")
        if self.images_per_server < 1:
            raise ValueError("need at least one image per server")
        if self.nic_capacity < 1:
            raise ValueError("nic_capacity must be >= 1")
        if not 1 <= self.replication_factor <= self.num_servers + 1:
            raise ValueError(
                "replication_factor must be between 1 and the host count"
            )
        if self.relocation_timeout <= 0:
            raise ValueError("relocation_timeout must be positive")
        if not 0.0 <= self.degraded_view_threshold <= 1.0:
            raise ValueError("degraded_view_threshold must be in [0, 1]")
        if self.degraded_estimate_horizon <= 0:
            raise ValueError("degraded_estimate_horizon must be positive")
        if self.degraded_rounds_to_download_all < 1:
            raise ValueError("degraded_rounds_to_download_all must be >= 1")
        self._validate_links()

    def _validate_links(self) -> None:
        hosts = [*self.server_hosts, self.client_host]
        for i, a in enumerate(hosts):
            for b in hosts[i + 1 :]:
                key = (a, b) if a < b else (b, a)
                if key not in self.link_traces:
                    raise ValueError(f"missing link trace for {key!r}")

    @property
    def all_hosts(self) -> tuple[str, ...]:
        """Server hosts plus the client host."""
        return (*self.server_hosts, self.client_host)
