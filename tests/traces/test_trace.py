"""BandwidthTrace semantics: validation, queries, integration."""

import numpy as np
import pytest

from repro.traces import BandwidthTrace, constant_trace
from repro.traces.trace import MIN_RATE, merge_min


def transfer_time_scan(trace: BandwidthTrace, nbytes: float, t0: float) -> float:
    """Reference segment-by-segment walk of ``trace.transfer_time``.

    The pre-prefix-sum algorithm: identical semantics up to
    floating-point association order, kept here as the oracle the
    searchsorted inversion is cross-checked against.
    """
    if nbytes == 0:
        return 0.0
    rates = trace.rates
    times = trace.times
    last = len(trace) - 1
    if t0 >= trace.end:
        return nbytes / float(rates[last])
    remaining = float(nbytes)
    elapsed = 0.0
    if t0 < trace.start:
        head_capacity = (trace.start - t0) * float(rates[0])
        if remaining <= head_capacity:
            return remaining / float(rates[0])
        remaining -= head_capacity
        elapsed = trace.start - t0
        cursor = trace.start
        index = 0
    else:
        index = int(np.searchsorted(times, t0, side="right")) - 1
        index = min(max(index, 0), last)
        cursor = t0
    while index < last:
        segment_end = float(times[index + 1])
        capacity = (segment_end - cursor) * float(rates[index])
        if remaining <= capacity:
            return elapsed + remaining / float(rates[index])
        remaining -= capacity
        elapsed += segment_end - cursor
        cursor = segment_end
        index += 1
    return elapsed + remaining / float(rates[last])


class TestConstruction:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([0, 1], [10])

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([0, 1, 1], [1, 2, 3])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([0, float("nan")], [1, 2])
        with pytest.raises(ValueError):
            BandwidthTrace([0, 1], [1, float("inf")])

    def test_rates_clamped_to_min(self):
        trace = BandwidthTrace([0, 10], [0.0, -5.0])
        assert trace.rates.min() >= MIN_RATE

    def test_constant_trace(self):
        trace = constant_trace(100.0)
        assert trace.rate_at(0) == 100.0
        assert trace.rate_at(1e9) == 100.0

    def test_constant_trace_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            constant_trace(0)


class TestQueries:
    def trace(self):
        return BandwidthTrace([0, 10, 20], [100, 50, 200], name="t")

    def test_rate_at_steps(self):
        t = self.trace()
        assert t.rate_at(0) == 100
        assert t.rate_at(9.99) == 100
        assert t.rate_at(10) == 50
        assert t.rate_at(19.99) == 50
        assert t.rate_at(25) == 200

    def test_rate_before_start_extends_first(self):
        assert self.trace().rate_at(-5) == 100

    def test_duration_and_bounds(self):
        t = self.trace()
        assert t.start == 0
        assert t.end == 20
        assert t.duration == 20
        assert len(t) == 3

    def test_mean_rate_time_weighted(self):
        t = self.trace()
        # [0,10): 100, [10,20): 50  => mean over [0,20] = 75
        assert t.mean_rate(0, 20) == pytest.approx(75.0)

    def test_mean_rate_degenerate_interval(self):
        t = self.trace()
        assert t.mean_rate(5, 5) == 100.0

    def test_bytes_between(self):
        t = self.trace()
        assert t.bytes_between(0, 10) == pytest.approx(1000)
        assert t.bytes_between(5, 15) == pytest.approx(500 + 250)
        assert t.bytes_between(15, 25) == pytest.approx(250 + 1000)

    def test_bytes_between_rejects_reversed(self):
        with pytest.raises(ValueError):
            self.trace().bytes_between(10, 5)


class TestTransferTime:
    def test_simple_constant(self):
        t = constant_trace(100.0)
        assert t.transfer_time(1000, 0) == pytest.approx(10.0)

    def test_zero_bytes_is_instant(self):
        assert constant_trace(10).transfer_time(0, 123) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            constant_trace(10).transfer_time(-1, 0)

    def test_straddles_rate_change(self):
        t = BandwidthTrace([0, 10], [100, 50])
        # 1000 bytes in first 10s at 100 B/s, then 500 more at 50 B/s.
        assert t.transfer_time(1500, 0) == pytest.approx(20.0)

    def test_start_mid_segment(self):
        t = BandwidthTrace([0, 10], [100, 50])
        assert t.transfer_time(500, 5) == pytest.approx(5.0)

    def test_extends_beyond_trace_end(self):
        t = BandwidthTrace([0, 10], [100, 50])
        # From t=10: everything at 50 B/s.
        assert t.transfer_time(5000, 10) == pytest.approx(100.0)

    def test_start_before_trace(self):
        t = BandwidthTrace([10, 20], [100, 50])
        # First rate extends backwards.
        assert t.transfer_time(500, 0) == pytest.approx(5.0)

    def test_consistency_with_bytes_between(self):
        t = BandwidthTrace([0, 7, 13, 40], [120, 30, 220, 80])
        for nbytes in (1, 500, 5000, 50000):
            for start in (0.0, 3.3, 12.0, 50.0):
                duration = t.transfer_time(nbytes, start)
                assert t.bytes_between(start, start + duration) == pytest.approx(
                    nbytes, rel=1e-9
                )


class TestTransforms:
    def test_shifted(self):
        t = BandwidthTrace([0, 10], [1, 2]).shifted(100)
        assert t.start == 100
        assert t.rate_at(105) == 1

    def test_rebased(self):
        t = BandwidthTrace([50, 60], [1, 2]).rebased(0)
        assert t.start == 0
        assert t.rate_at(5) == 1

    def test_scaled(self):
        t = BandwidthTrace([0, 10], [10, 20]).scaled(3)
        assert t.rate_at(0) == 30
        with pytest.raises(ValueError):
            t.scaled(0)

    def test_segment_preserves_rates(self):
        t = BandwidthTrace([0, 10, 20], [100, 50, 200])
        seg = t.segment(5, 15)
        assert seg.start == 5
        assert seg.end == 15
        assert seg.rate_at(6) == 100
        assert seg.rate_at(12) == 50

    def test_segment_rejects_empty(self):
        t = constant_trace(10)
        with pytest.raises(ValueError):
            t.segment(5, 5)

    def test_equality(self):
        a = BandwidthTrace([0, 1], [2, 3])
        b = BandwidthTrace([0, 1], [2, 3])
        c = BandwidthTrace([0, 1], [2, 4])
        assert a == b
        assert a != c


class TestMergeMin:
    def test_pointwise_minimum(self):
        a = BandwidthTrace([0, 10], [100, 10])
        b = BandwidthTrace([0, 5], [50, 200])
        merged = merge_min([a, b])
        assert merged.rate_at(0) == 50
        assert merged.rate_at(6) == 100
        assert merged.rate_at(12) == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_min([])


class TestTransferTimePrefixSum:
    """The prefix-sum inversion must agree with the reference walk."""

    def test_matches_reference_scan(self):
        rng = np.random.default_rng(11)
        times = np.cumsum(rng.uniform(1.0, 60.0, size=200))
        rates = rng.lognormal(np.log(30 * 1024), 0.8, size=200)
        trace = BandwidthTrace(times, rates)
        for _ in range(300):
            nbytes = float(rng.uniform(0, 5e8))
            t0 = float(rng.uniform(times[0] - 1e3, times[-1] + 1e3))
            fast = trace.transfer_time(nbytes, t0)
            slow = transfer_time_scan(trace, nbytes, t0)
            assert fast >= 0
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-6)

    def test_spanning_many_segments(self):
        # 1 byte/s for 1000 one-second segments, then 1000 bytes/s.
        n = 1001
        trace = BandwidthTrace(np.arange(n, dtype=float), [1.0] * (n - 1) + [1000.0])
        # 1500 bytes: 1000 s through the slow segments + 0.5 s at the tail.
        assert trace.transfer_time(1500.0, 0.0) == pytest.approx(1000.5)

    def test_single_segment_stays_exact(self):
        trace = BandwidthTrace([0.0, 1e9], [8.0, 8.0])
        # A tiny transfer deep inside a huge segment: exact division, no
        # prefix-sum cancellation.
        assert trace.transfer_time(4.0, 12345.6789) == pytest.approx(0.5)
