"""Step-function bandwidth traces and transfer-time integration.

A :class:`BandwidthTrace` holds sample times ``t[0..n-1]`` (seconds) and
rates ``r[0..n-1]`` (bytes/second); the instantaneous rate is ``r[i]`` for
``t[i] <= t < t[i+1]``.  Before ``t[0]`` the rate is ``r[0]``; after the
last sample the rate holds at ``r[n-1]`` (the trace segments used in the
experiments are long enough that this never matters).

The core operation is :meth:`BandwidthTrace.transfer_time`: the time to
move ``nbytes`` starting at ``t0``, found by inverting the cumulative
byte integral of the step function.  This is what makes the network model
honest about transfers that straddle bandwidth changes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

#: Smallest rate we allow, so transfer times stay finite.  1 byte/s is far
#: below anything a mid-1990s WAN path would sustain while still "up".
MIN_RATE = 1.0

#: Maximum segments a cursor walks forward before falling back to binary
#: search.  Near-monotone query streams advance a handful of segments per
#: call; a jump past this many segments is cheaper to locate in O(log n).
_CURSOR_MAX_ADVANCE = 32


class TraceCursor:
    """A mutable segment-index hint for near-monotone trace queries.

    Consecutive :meth:`BandwidthTrace.transfer_time` queries on one link
    start at (almost always) non-decreasing times, so the containing
    segment advances by a few positions per call.  A cursor remembers the
    last segment index; the trace resumes the search there with an
    amortized-O(1) pointer advance instead of an O(log n) bisection,
    falling back to binary search for out-of-order or far-jumping queries.

    Cursors are an *optimization hint only*: results are bit-identical
    with or without one (pinned by ``tests/traces/test_cursor.py``).  They
    live on the mutable query-side object (e.g. :class:`repro.net.link.
    Link`), never on the trace itself — traces stay immutable and safely
    shared across links, runs and sweep workers.
    """

    __slots__ = ("index",)

    def __init__(self, index: int = 0) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"TraceCursor(index={self.index})"


class BandwidthTrace:
    """An immutable step-function of available bandwidth over time.

    Parameters
    ----------
    times:
        Strictly increasing sample times, seconds.
    rates:
        Bandwidth at each sample time, bytes/second.  Clamped below at
        :data:`MIN_RATE`.
    name:
        Optional label (e.g. ``"umd-ucla"``).

    The float64 arrays are the stored data.  The scalar query paths
    (:meth:`transfer_time`, :meth:`rate_at`, :meth:`_locate`) read them
    through zero-copy ``memoryview`` objects instead: indexing a view
    yields a Python float at a fraction of a numpy scalar's cost, and
    :func:`bisect.bisect_right` on a view finds the same index as
    ``np.searchsorted(..., side="right")`` on these sorted arrays.  Vector
    operations stay numpy.  ``start`` and ``end`` are plain floats.
    """

    __slots__ = (
        "times",
        "rates",
        "name",
        "start",
        "end",
        "_segbytes",
        "_cumbytes",
        "_times_v",
        "_rates_v",
        "_cum_v",
    )

    def __init__(
        self,
        times: Sequence[float] | np.ndarray,
        rates: Sequence[float] | np.ndarray,
        name: str = "",
    ) -> None:
        times_arr = np.asarray(times, dtype=np.float64)
        rates_arr = np.asarray(rates, dtype=np.float64)
        if times_arr.ndim != 1 or rates_arr.ndim != 1:
            raise ValueError("times and rates must be one-dimensional")
        if times_arr.size == 0:
            raise ValueError("a trace needs at least one sample")
        if times_arr.size != rates_arr.size:
            raise ValueError(
                f"length mismatch: {times_arr.size} times vs {rates_arr.size} rates"
            )
        if times_arr.size > 1 and not np.all(np.diff(times_arr) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(times_arr)):
            raise ValueError("times must be finite")
        if not np.all(np.isfinite(rates_arr)):
            raise ValueError("rates must be finite")

        self.times = times_arr
        self.rates = np.maximum(rates_arr, MIN_RATE)
        self.name = name
        # _segbytes[i] = bytes transferred over segment [times[i],
        # times[i+1]); _cumbytes[i] = bytes transferred between times[0]
        # and times[i] at the trace's rates.  Both lazily computed.
        self._segbytes: np.ndarray | None = None
        self._cumbytes: np.ndarray | None = None
        self._make_views()

    def _make_views(self) -> None:
        """Build the scalar-path views and cached bounds from the arrays."""
        self._times_v = memoryview(self.times)
        self._rates_v = memoryview(self.rates)
        #: Time of the first sample.
        self.start = self._times_v[0]
        #: Time of the last sample.
        self.end = self._times_v[-1]
        cum = self._cumbytes
        self._cum_v = None if cum is None else memoryview(cum)

    def __getstate__(self) -> dict:
        # Views do not pickle: ship the arrays (and the prefix sums, when
        # built) and rebuild the views on the other side.
        return {
            "times": self.times,
            "rates": self.rates,
            "name": self.name,
            "_segbytes": self._segbytes,
            "_cumbytes": self._cumbytes,
        }

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            setattr(self, key, value)
        self._make_views()

    # -- basic queries ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times_v)

    @property
    def duration(self) -> float:
        """``end - start``."""
        return self.end - self.start

    def rate_at(self, t: float, hint: "TraceCursor | None" = None) -> float:
        """Instantaneous bandwidth (bytes/s) at time ``t``."""
        return self._rates_v[self._locate(t, hint)]

    def mean_rate(self, t0: float | None = None, t1: float | None = None) -> float:
        """Time-weighted mean bandwidth over ``[t0, t1]`` (default: whole trace)."""
        if t0 is None:
            t0 = self.start
        if t1 is None:
            t1 = self.end
        if t1 <= t0:
            return self.rate_at(t0)
        return self.bytes_between(t0, t1) / (t1 - t0)

    def cursor(self) -> TraceCursor:
        """A fresh :class:`TraceCursor` for near-monotone queries."""
        return TraceCursor()

    # -- integration --------------------------------------------------------
    def _cum(self) -> memoryview:
        """The cumulative-bytes prefix sum, as a view (built on first use)."""
        if self._cum_v is None:
            self._segbytes = np.diff(self.times) * self.rates[:-1]
            self._cumbytes = np.concatenate(([0.0], np.cumsum(self._segbytes)))
            self._cum_v = memoryview(self._cumbytes)
        return self._cum_v

    def ensure_cum(self) -> "BandwidthTrace":
        """Eagerly compute the cumulative-bytes prefix sum; returns ``self``.

        The prefix sum is computed exactly once and shared read-only by
        every consumer of the trace (links, runs, sweep workers), so batch
        pipelines prime it up front instead of paying the lazy computation
        inside the first simulated transfer.  Values are identical either
        way — this only moves *when* the array is built.
        """
        self._cum()
        return self

    def _locate(self, t0: float, hint: TraceCursor | None = None) -> int:
        """Index ``i`` with ``times[i] <= t0 < times[i+1]``, clamped to
        ``[0, len-1]`` — exactly ``bisect_right(times, t0) - 1``.

        With a ``hint`` the search resumes from the cursor's last index
        and walks forward (amortized O(1) for near-monotone query times);
        out-of-order queries and jumps past :data:`_CURSOR_MAX_ADVANCE`
        segments fall back to binary search.  The hint is updated to the
        returned index either way.
        """
        times = self._times_v
        last = len(times) - 1
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
        index = bisect_right(times, t0) - 1
        if index < 0:
            index = 0
        if hint is not None:
            hint.index = index
        return index

    def bytes_between(self, t0: float, t1: float) -> float:
        """Bytes deliverable between ``t0`` and ``t1`` at the trace's rates.

        Head (before the first sample) and tail (after the last sample)
        regions are computed directly against the flat extension rates, so
        results stay accurate far outside the sampled window.
        """
        if t1 < t0:
            raise ValueError(f"t1={t1} earlier than t0={t0}")
        start, end = self.start, self.end
        total = 0.0
        if t0 < start:
            total += (min(t1, start) - t0) * self._rates_v[0]
        if t1 > end:
            total += (t1 - max(t0, end)) * self._rates_v[-1]
        lo, hi = max(t0, start), min(t1, end)
        if hi > lo:
            total += self._bytes_inside(lo, hi)
        return total

    def _bytes_inside(self, lo: float, hi: float) -> float:
        """Bytes from ``lo`` to ``hi`` for start <= lo < hi <= end.

        Summed from the straddled segments, not as a difference of two
        cumulative-bytes values: those grow with the volume of the whole
        trace, and their rounding (an ulp of 1e12 bytes is ~1e-4 B) would
        swamp a short window on a slow segment late in a fast trace.
        """
        rates, times = self._rates_v, self._times_v
        first = self._locate(lo)
        if hi <= times[first + 1]:
            return (hi - lo) * rates[first]
        last = self._locate(hi)
        total = (times[first + 1] - lo) * rates[first]
        total += (hi - times[last]) * rates[last]
        if last > first + 1:
            self._cum()
            total += float(self._segbytes[first + 1 : last].sum())
        return total

    def transfer_time(
        self, nbytes: float, t0: float, hint: "TraceCursor | None" = None
    ) -> float:
        """Seconds to move ``nbytes`` starting at time ``t0``.

        The transfer consumes the step function's instantaneous rate; a
        rate change mid-transfer changes the transfer's speed from that
        moment on.  ``nbytes == 0`` takes zero time.

        The first (partial) segment is handled directly — exact, never
        negative, even for tiny transfers far outside the sampled window.
        A transfer that spans further is inverted against the cumulative
        prefix-sum byte integral with one bisection, so the cost is
        O(log n) rather than a Python-level walk over every straddled
        segment (``tests/traces/test_trace.py`` keeps that walk as the
        reference it cross-checks against, and
        ``tests/traces/reference_trace.py`` keeps the numpy-scalar form of
        this method).

        ``hint`` (a :class:`TraceCursor`, typically owned by a
        :class:`repro.net.link.Link`) amortizes the *starting-segment*
        lookup to O(1) across a near-monotone stream of query times; the
        result is bit-identical with or without it.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes!r}")
        if nbytes == 0:
            return 0.0
        rates = self._rates_v
        times = self._times_v
        last = len(times) - 1

        if t0 >= self.end:
            if hint is not None:
                hint.index = last
            return nbytes / rates[last]
        remaining = float(nbytes)
        elapsed = 0.0
        if t0 < self.start:
            head_capacity = (self.start - t0) * rates[0]
            if remaining <= head_capacity:
                return remaining / rates[0]
            remaining -= head_capacity
            elapsed = self.start - t0
            cursor = self.start
            index = 0
            if hint is not None:
                hint.index = 0
        else:
            index = self._locate(t0, hint)
            cursor = t0
        if index == last:
            return elapsed + remaining / rates[last]
        # Finish the (partial) segment the transfer starts in exactly.
        boundary = times[index + 1]
        capacity = (boundary - cursor) * rates[index]
        if remaining <= capacity:
            return elapsed + remaining / rates[index]
        remaining -= capacity
        elapsed += boundary - cursor
        index += 1
        if index == last:
            return elapsed + remaining / rates[last]
        # From the sample boundary ``times[index]`` onward, invert the
        # cumulative byte integral: find the segment whose prefix-sum
        # bracket contains ``cum[index] + remaining``.  Every entry before
        # ``index`` is <= ``cum[index]`` <= ``target``, so bisecting from
        # ``index`` finds the same position as bisecting the whole array.
        cum = self._cum()
        target = cum[index] + remaining
        stop = bisect_right(cum, target, index) - 1
        if stop >= last:
            return (
                elapsed
                + times[last] - times[index]
                + (target - cum[last]) / rates[last]
            )
        stop = max(stop, index)
        within = (target - cum[stop]) / rates[stop]
        return elapsed + times[stop] - times[index] + within

    # -- transforms ----------------------------------------------------------
    def shifted(self, offset: float) -> "BandwidthTrace":
        """A copy whose time axis is shifted by ``offset`` seconds."""
        return BandwidthTrace(self.times + offset, self.rates, name=self.name)

    def segment(self, t0: float, t1: float) -> "BandwidthTrace":
        """The sub-trace covering ``[t0, t1]`` (rates extended flat)."""
        if t1 <= t0:
            raise ValueError(f"empty segment [{t0}, {t1}]")
        inside = (self.times > t0) & (self.times < t1)
        times = np.concatenate(([t0], self.times[inside], [t1]))
        rates = np.concatenate(
            ([self.rate_at(t0)], self.rates[inside], [self.rate_at(t1)])
        )
        return BandwidthTrace(times, rates, name=self.name)

    def rebased(self, new_start: float = 0.0) -> "BandwidthTrace":
        """A copy shifted so that the first sample sits at ``new_start``."""
        return self.shifted(new_start - self.start)

    def scaled(self, factor: float) -> "BandwidthTrace":
        """A copy with all rates multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor!r}")
        return BandwidthTrace(self.times, self.rates * factor, name=self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BandwidthTrace):
            return NotImplemented
        return (
            np.array_equal(self.times, other.times)
            and np.array_equal(self.rates, other.rates)
        )

    def __hash__(self) -> int:  # identity hash; traces are mutable-free but big
        return object.__hash__(self)

    def __repr__(self) -> str:
        return (
            f"<BandwidthTrace {self.name!r} n={len(self)} "
            f"[{self.start:.0f}s..{self.end:.0f}s] "
            f"mean={self.mean_rate() / 1024:.1f}KB/s>"
        )


def constant_trace(rate: float, name: str = "constant") -> BandwidthTrace:
    """A trace with a single, constant rate (bytes/second)."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate!r}")
    return BandwidthTrace([0.0], [rate], name=name)


def merge_min(traces: Iterable[BandwidthTrace], name: str = "min") -> BandwidthTrace:
    """Pointwise minimum of several traces (bottleneck of a multi-hop path)."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    grid = np.unique(np.concatenate([t.times for t in traces]))
    rates = np.min(
        np.stack([[t.rate_at(x) for x in grid] for t in traces]), axis=0
    )
    return BandwidthTrace(grid, rates, name=name)
