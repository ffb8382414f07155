"""No calendar event without a waiter: the kernel-waste guard.

An event processed with an empty callback list did nothing but cost a
heap push, a heap pop and a loop iteration.  Actor mailboxes used to
schedule one such ``StorePut`` per delivered message, about a third of
all calendar events in a paper-scale run.  This guard counts idle events
with a kernel hook over the small paper configuration for every
algorithm, so a new source of them shows up here rather than as a
slowdown.
"""

from collections import Counter

import pytest

from repro.engine.config import Algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.obs import Tracer

SETUP = ExperimentConfig(num_servers=4, images_per_server=12)

#: Idle events allowed per run.  Each run has exactly one: the client
#: actor's own Process completion, the last event of the run, which
#: nothing waits on because the run ends with it.
IDLE_ALLOWANCE = 1


class _IdleEventCounter(Tracer):
    """A tracer whose kernel hook also tallies events nobody waits on."""

    def __init__(self) -> None:
        super().__init__()
        self.idle: Counter[str] = Counter()

    def kernel_hook(self, now, event) -> None:
        super().kernel_hook(now, event)
        if not event.callbacks:
            self.idle[type(event).__name__] += 1


CASES = [(0, algorithm, {}) for algorithm in Algorithm] + [
    # Frequent replanning relocates an operator here, so messages in
    # flight to it are forwarded from its old host.
    (3, Algorithm.GLOBAL, {"relocation_period": 30.0}),
]


@pytest.mark.parametrize(
    "index, algorithm, overrides",
    CASES,
    ids=[f"{i}-{a.value}{'-relocating' if o else ''}" for i, a, o in CASES],
)
def test_no_idle_calendar_events(index, algorithm, overrides):
    counter = _IdleEventCounter()
    metrics = run_configuration(SETUP, index, algorithm, tracer=counter, **overrides)
    assert counter.counters["sim.events"] > 0
    if overrides:
        assert metrics.relocations > 0
    assert "StorePut" not in counter.idle
    assert sum(counter.idle.values()) <= IDLE_ALLOWANCE, dict(counter.idle)
