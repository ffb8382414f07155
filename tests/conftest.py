"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import pytest

from repro.engine.config import Algorithm, SimulationSpec
from repro.net.host import Host
from repro.net.network import Network
from repro.placement import one_shot
from repro.sim import Environment
from repro.traces import constant_trace


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def full_des(monkeypatch):
    """``with full_des():`` runs its block on the full-DES reference path.

    Every transfer steps through a generator process and every disk/CPU
    hold through request-grant, the classic schedule the fluid fast
    paths (class-level constants on :class:`Network` and :class:`Host`)
    must reproduce bit-for-bit.
    """

    @contextlib.contextmanager
    def forced():
        with monkeypatch.context() as patch:
            patch.setattr(Network, "FLUID_FAST_PATH", False)
            patch.setattr(Host, "FLUID_FACILITIES", False)
            yield

    return forced


@pytest.fixture
def scalar_planner(monkeypatch):
    """``with scalar_planner():`` plans its block with the scalar search.

    The one-shot/global family takes the vectorized engine whenever the
    estimator is snapshot-safe; treating every estimator as unsafe
    forces the per-candidate reference loop it must match bit-for-bit.
    """

    @contextlib.contextmanager
    def forced():
        with monkeypatch.context() as patch:
            patch.setattr(one_shot, "snapshot_safe", lambda estimator: False)
            yield

    return forced


def complete_links(hosts, rate=50 * 1024.0):
    """Constant-rate traces for the complete graph over ``hosts``."""
    links = {}
    for i, a in enumerate(hosts):
        for b in hosts[i + 1 :]:
            key = (a, b) if a < b else (b, a)
            links[key] = constant_trace(rate, name=f"{key[0]}~{key[1]}")
    return links


def tiny_spec(
    algorithm: Algorithm = Algorithm.DOWNLOAD_ALL,
    num_servers: int = 4,
    images: int = 6,
    rate: float = 50 * 1024.0,
    **overrides,
) -> SimulationSpec:
    """A small, fast simulation spec on constant-rate links."""
    hosts = tuple(f"h{i}" for i in range(num_servers))
    links = overrides.pop("link_traces", None) or complete_links(
        [*hosts, "client"], rate
    )
    return SimulationSpec(
        algorithm=algorithm,
        tree_shape=overrides.pop("tree_shape", "binary"),
        num_servers=num_servers,
        link_traces=links,
        server_hosts=hosts,
        images_per_server=images,
        **overrides,
    )
