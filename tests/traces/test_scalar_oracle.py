"""The trace's view-based scalar paths against the numpy-scalar reference.

``transfer_time``, ``rate_at`` and ``_locate`` read ``memoryview``
objects and bisect them; ``reference_trace.py`` keeps the numpy-scalar
``searchsorted`` forms.  For random traces and query streams (before
the first sample, on sample times, inside segments, in the last segment
and past the end; sorted, so a cursor walks, or shuffled, so it falls
back) every answer and every cursor position must be exactly equal, on
a lazy trace, an eager one (``ensure_cum``) and pickled clones of both.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.trace import BandwidthTrace, TraceCursor
from tests.traces.reference_trace import (
    reference_cum,
    reference_locate,
    reference_rate_at,
    reference_transfer_time,
)

PLACES = ("before", "sample", "inside", "last", "after", "boundary")


@st.composite
def trace_data(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    origin = draw(st.floats(min_value=-1e4, max_value=1e5))
    gaps = draw(
        st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=n, max_size=n)
    )
    times = origin + np.cumsum(gaps)
    # Rates below MIN_RATE exercise the clamp.
    rates = draw(
        st.lists(st.floats(min_value=0.0, max_value=1e8), min_size=n, max_size=n)
    )
    return times, np.asarray(rates)


@st.composite
def queries(draw):
    spec = st.tuples(
        st.sampled_from(PLACES),
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.one_of(
            st.sampled_from((0.0, 1.0, 256.0)),
            st.floats(min_value=0.0, max_value=1e10),
        ),
    )
    return draw(st.lists(spec, min_size=1, max_size=40)), draw(st.booleans())


def _query(trace: BandwidthTrace, place, k, frac, nbytes) -> tuple[float, float]:
    """A query's ``(t0, nbytes)``; ``boundary`` queries start on a sample
    and carry exactly the prefix-sum bytes up to a later one, so the
    inversion's target lands on a prefix-sum entry."""
    times = trace.times
    start, end = float(times[0]), float(times[-1])
    if place == "before":
        return start - 1e-3 - frac * 1e4, nbytes
    if place == "after":
        return end + frac * 1e4, nbytes
    if place == "last":
        lo = float(times[-2]) if times.size > 1 else end
        return lo + frac * (end - lo), nbytes
    if place == "boundary" and times.size >= 3:
        i = k % (times.size - 2)
        j = i + 2 + (k // 7) % (times.size - i - 2)
        cum = reference_cum(trace)
        return float(times[i]), float(cum[j] - cum[i])
    i = k % times.size
    if place in ("sample", "boundary"):
        return float(times[i]), nbytes
    hi = float(times[i + 1]) if i + 1 < times.size else float(times[i]) + 10.0
    return float(times[i]) + frac * (hi - float(times[i])), nbytes


def _clones(times, rates):
    lazy = BandwidthTrace(times, rates)
    eager = BandwidthTrace(times, rates).ensure_cum()
    pickled_lazy = pickle.loads(pickle.dumps(BandwidthTrace(times, rates)))
    pickled_eager = pickle.loads(
        pickle.dumps(BandwidthTrace(times, rates).ensure_cum())
    )
    assert lazy._cumbytes is None and pickled_lazy._cumbytes is None
    assert pickled_eager._cumbytes is not None
    return {
        "lazy": lazy,
        "eager": eager,
        "pickled-lazy": pickled_lazy,
        "pickled-eager": pickled_eager,
    }


@given(data=trace_data(), stream=queries())
@settings(max_examples=150, deadline=None)
def test_scalar_paths_match_numpy_reference(data, stream):
    times, rates = data
    specs, monotone = stream
    clones = _clones(times, rates)
    points = [_query(clones["lazy"], *spec) for spec in specs]
    if monotone:
        points.sort()
    for label, trace in clones.items():
        assert trace.start == float(trace.times[0]), label
        assert trace.end == float(trace.times[-1]), label
        transfer_hint, ref_transfer_hint = trace.cursor(), TraceCursor()
        rate_hint, ref_rate_hint = trace.cursor(), TraceCursor()
        for t0, nbytes in points:
            expected = reference_transfer_time(trace, nbytes, t0)
            assert trace.transfer_time(nbytes, t0) == expected, (label, t0, nbytes)
            hinted = trace.transfer_time(nbytes, t0, hint=transfer_hint)
            assert hinted == reference_transfer_time(
                trace, nbytes, t0, ref_transfer_hint
            ), (label, t0, nbytes)
            assert hinted == expected
            assert transfer_hint.index == ref_transfer_hint.index, label

            assert trace._locate(t0) == reference_locate(trace, t0), label
            assert trace.rate_at(t0) == reference_rate_at(trace, t0), label
            assert trace.rate_at(t0, rate_hint) == reference_rate_at(
                trace, t0, ref_rate_hint
            ), label
            assert rate_hint.index == ref_rate_hint.index, label
