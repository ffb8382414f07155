"""Numpy-scalar reference of the trace's scalar query paths.

:class:`repro.traces.trace.BandwidthTrace` answers ``transfer_time``,
``rate_at`` and ``_locate`` through ``memoryview`` objects over its
arrays and :func:`bisect.bisect_right`.  These functions are the same
algorithms written against the float64 arrays themselves: numpy-scalar
indexing and ``np.searchsorted(..., side="right")``.  They build their
own prefix sum, so they never touch (or prime) the trace's lazy cache.
``test_scalar_oracle.py`` asserts exact equality between the two.
"""

from __future__ import annotations

import numpy as np

from repro.traces.trace import _CURSOR_MAX_ADVANCE, BandwidthTrace, TraceCursor


def reference_cum(trace: BandwidthTrace) -> np.ndarray:
    """The cumulative-bytes prefix sum, computed as the trace computes it."""
    segbytes = np.diff(trace.times) * trace.rates[:-1]
    return np.concatenate(([0.0], np.cumsum(segbytes)))


def reference_locate(
    trace: BandwidthTrace, t0: float, hint: TraceCursor | None = None
) -> int:
    """``searchsorted(times, t0, 'right') - 1`` clamped, with cursor walk."""
    times = trace.times
    last = times.size - 1
    if hint is not None:
        index = hint.index
        if 0 <= index <= last and times[index] <= t0:
            steps = 0
            advanced = True
            while index < last and times[index + 1] <= t0:
                index += 1
                steps += 1
                if steps > _CURSOR_MAX_ADVANCE:
                    advanced = False
                    break
            if advanced:
                hint.index = index
                return index
    index = int(np.searchsorted(times, t0, side="right")) - 1
    index = 0 if index < 0 else (last if index > last else index)
    if hint is not None:
        hint.index = index
    return index


def reference_rate_at(
    trace: BandwidthTrace, t: float, hint: TraceCursor | None = None
) -> float:
    """Instantaneous bandwidth at ``t``."""
    return float(trace.rates[reference_locate(trace, t, hint)])


def reference_transfer_time(
    trace: BandwidthTrace,
    nbytes: float,
    t0: float,
    hint: TraceCursor | None = None,
) -> float:
    """Seconds to move ``nbytes`` from ``t0``: partial first segment, then
    a ``searchsorted`` inversion of the prefix sum."""
    if nbytes < 0:
        raise ValueError(f"negative transfer size {nbytes!r}")
    if nbytes == 0:
        return 0.0
    rates = trace.rates
    times = trace.times
    last = len(times) - 1
    start, end = float(times[0]), float(times[-1])

    if t0 >= end:
        if hint is not None:
            hint.index = last
        return nbytes / float(rates[last])
    remaining = float(nbytes)
    elapsed = 0.0
    if t0 < start:
        head_capacity = (start - t0) * float(rates[0])
        if remaining <= head_capacity:
            return remaining / float(rates[0])
        remaining -= head_capacity
        elapsed = start - t0
        cursor = start
        index = 0
        if hint is not None:
            hint.index = 0
    else:
        index = reference_locate(trace, t0, hint)
        cursor = t0
    if index == last:
        return elapsed + remaining / float(rates[last])
    boundary = float(times[index + 1])
    capacity = (boundary - cursor) * float(rates[index])
    if remaining <= capacity:
        return elapsed + remaining / float(rates[index])
    remaining -= capacity
    elapsed += boundary - cursor
    index += 1
    if index == last:
        return elapsed + remaining / float(rates[last])
    cum = reference_cum(trace)
    target = float(cum[index]) + remaining
    stop = int(np.searchsorted(cum, target, side="right")) - 1
    if stop >= last:
        return (
            elapsed
            + float(times[last]) - float(times[index])
            + (target - float(cum[last])) / float(rates[last])
        )
    stop = max(stop, index)
    within = (target - float(cum[stop])) / float(rates[stop])
    return elapsed + float(times[stop]) - float(times[index]) + within
