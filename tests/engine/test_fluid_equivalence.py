"""Fluid fast path vs forced full DES: bit-identical results.

The hybrid fluid/DES kernel collapse (single-callback transfers, elided
fire-and-forget delivery events, synchronous facility holds) must be
*observationally invisible*: a run forced onto the full DES path (the
``full_des`` fixture — the classic all-process schedule) and the default
fast-path run must agree
on every metric, every arrival time, and the byte-exact obs event
stream, with and without fault plans.  The only permitted differences
are the kernel-accounting diagnostics (``kernel_events``,
``fluid_transfers``/``des_transfers``), which exist precisely to measure
the collapse.
"""

import hashlib
import json

import pytest

from repro.engine.config import Algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.faults import reference_chaos_plan
from repro.faults.plan import FaultPlan, HostCrash, LinkOutage
from repro.obs import Tracer

ALGORITHMS = [
    Algorithm.DOWNLOAD_ALL,
    Algorithm.ONE_SHOT,
    Algorithm.LOCAL,
    Algorithm.GLOBAL,
]

SETUP = ExperimentConfig(num_servers=4, images_per_server=8)


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


def _pair(full_des, setup, index, algorithm):
    """(fast metrics+digest, forced-slow metrics+digest) for one run."""
    fast_tracer, slow_tracer = Tracer(), Tracer()
    fast = run_configuration(setup, index, algorithm, tracer=fast_tracer)
    with full_des():
        slow = run_configuration(setup, index, algorithm, tracer=slow_tracer)
    return fast, _stream_digest(fast_tracer), slow, _stream_digest(slow_tracer)


def _assert_equivalent(fast, fast_digest, slow, slow_digest):
    assert fast.summary() == slow.summary()
    assert fast.arrival_times == slow.arrival_times
    assert fast_digest == slow_digest
    # Forced-slow runs the classic schedule: nothing may go fluid, and
    # the collapse must actually have removed calendar events.
    assert slow.fluid_transfers == 0
    assert slow.des_transfers == slow.transfers
    assert fast.kernel_events < slow.kernel_events


def _no_loss_plan(hosts) -> FaultPlan:
    """Outages and crashes but no loss streams: transfers outside the
    windows stay eligible for the fluid path, so this exercises the
    under-faults launch-callback variant rather than the full decline."""
    return FaultPlan(
        seed=3,
        link_outages=(
            LinkOutage(hosts[0], hosts[1], start=40.0, end=90.0),
            LinkOutage(hosts[1], "client", start=150.0, end=200.0),
        ),
        host_crashes=(HostCrash(hosts[2], start=260.0, end=320.0),),
    )


class TestNoFaultEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_fast_equals_forced_slow(self, algorithm, index, full_des):
        fast, fd, slow, sd = _pair(full_des, SETUP, index, algorithm)
        _assert_equivalent(fast, fd, slow, sd)
        # Without an injector every transfer goes fluid.
        assert fast.fluid_transfers == fast.transfers > 0
        assert fast.des_transfers == 0

    def test_counters_partition_transfers(self):
        fast = run_configuration(SETUP, 0, Algorithm.GLOBAL)
        assert fast.fluid_transfers + fast.des_transfers == fast.transfers


class TestFaultedEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_loss_plan_mixes_fluid_and_des(self, algorithm, full_des):
        setup = ExperimentConfig(
            num_servers=4,
            images_per_server=8,
            fault_plan=_no_loss_plan(SETUP.server_hosts),
        )
        fast, fd, slow, sd = _pair(full_des, setup, 0, algorithm)
        _assert_equivalent(fast, fd, slow, sd)
        # Outage/crash windows force some transfers onto the DES path,
        # the rest must still collapse.
        assert fast.fluid_transfers > 0

    @pytest.mark.parametrize(
        "algorithm", [Algorithm.DOWNLOAD_ALL, Algorithm.GLOBAL]
    )
    def test_chaos_plan_equivalent(self, algorithm, full_des):
        hosts = (*SETUP.server_hosts, SETUP.client_host)
        setup = ExperimentConfig(
            num_servers=4,
            images_per_server=8,
            fault_plan=reference_chaos_plan(hosts, seed=1),
        )
        fast, fd, slow, sd = _pair(full_des, setup, 0, algorithm)
        assert fast.summary() == slow.summary()
        assert fd == sd
        # Loss streams require per-attempt RNG draws, so every lossy
        # pair must decline the fluid path.
        assert fast.fluid_transfers == 0


class TestWorkloadEquivalence:
    def test_concurrent_workload_equal_streams(self, full_des):
        from repro.workload import (
            ClosedLoop,
            QueryClass,
            WorkloadSpec,
            run_workload,
        )

        spec = WorkloadSpec(
            classes=(
                QueryClass(name="global", algorithm=Algorithm.GLOBAL),
                QueryClass(name="one-shot", algorithm=Algorithm.ONE_SHOT),
            ),
            num_clients=2,
            queries_per_client=1,
            arrivals=ClosedLoop(think_time=2.0),
            seed=11,
            num_servers=4,
            images_per_server=4,
        )

        fast_tracer, slow_tracer = Tracer(), Tracer()
        fast = run_workload(spec, tracer=fast_tracer)
        with full_des():
            slow = run_workload(spec, tracer=slow_tracer)
        assert fast.to_dict() == slow.to_dict()
        assert _stream_digest(fast_tracer) == _stream_digest(slow_tracer)
        assert sum(q.metrics.fluid_transfers for q in fast.queries) > 0
        assert sum(q.metrics.fluid_transfers for q in slow.queries) == 0
