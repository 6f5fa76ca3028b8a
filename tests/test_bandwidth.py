"""Tests for bandwidth traces."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.bandwidth import ConstantBandwidth, PiecewiseConstantBandwidth

#: Binary fractions and small integers, so sums are exact and a transfer
#: often finishes exactly on a breakpoint (10 bytes at 40 B/s = 0.25 s).
GAPS = st.sampled_from((0.0, 0.125, 0.25, 0.5, 1.0))
SIZES = st.sampled_from((0, 1, 5, 10, 25, 40, 100, 250))
_RATES = st.sampled_from((0.0, 0.0, 10.0, 40.0, 100.0, 1000.0))


@st.composite
def breakpoint_lists(draw):
    """Piecewise traces: zero-rate stretches, a possibly zero trailing rate,
    and a first breakpoint that may lie after t=0."""
    time = draw(st.sampled_from((0.0, 0.0, 0.5, 1.0)))
    breakpoints = []
    for _ in range(draw(st.integers(1, 6))):
        breakpoints.append((time, draw(_RATES)))
        time += draw(st.sampled_from((0.25, 0.5, 1.0)))
    return breakpoints


class TestConstantBandwidth:
    def test_finish_time(self):
        trace = ConstantBandwidth(1000.0)
        assert trace.finish_time(2.0, 500) == pytest.approx(2.5)

    def test_unlimited(self):
        trace = ConstantBandwidth(None)
        assert trace.rate_at(0.0) == math.inf
        assert trace.finish_time(3.0, 10**9) == 3.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ConstantBandwidth(0.0)
        with pytest.raises(ValueError):
            ConstantBandwidth(-1.0)


class TestPiecewiseConstantBandwidth:
    def test_single_segment_behaves_like_constant(self):
        trace = PiecewiseConstantBandwidth([(0.0, 100.0)])
        assert trace.finish_time(1.0, 50) == pytest.approx(1.5)

    def test_rate_lookup(self):
        trace = PiecewiseConstantBandwidth([(0.0, 10.0), (5.0, 20.0)])
        assert trace.rate_at(0.0) == 10.0
        assert trace.rate_at(4.99) == 10.0
        assert trace.rate_at(5.0) == 20.0
        assert trace.rate_at(100.0) == 20.0

    def test_transfer_spanning_segments(self):
        # 10 B/s for 5 s (50 bytes), then 20 B/s: a 90-byte transfer started
        # at t=0 finishes at 5 + 40/20 = 7 s.
        trace = PiecewiseConstantBandwidth([(0.0, 10.0), (5.0, 20.0)])
        assert trace.finish_time(0.0, 90) == pytest.approx(7.0)

    def test_transfer_through_zero_rate_segment(self):
        trace = PiecewiseConstantBandwidth([(0.0, 10.0), (1.0, 0.0), (3.0, 10.0)])
        # 15 bytes: 10 in the first second, stalled for 2 s, 5 more at t>3.
        assert trace.finish_time(0.0, 15) == pytest.approx(3.5)

    def test_zero_trailing_rate_never_finishes(self):
        trace = PiecewiseConstantBandwidth([(0.0, 10.0), (1.0, 0.0)])
        assert trace.finish_time(0.0, 1000) == math.inf

    def test_zero_size_transfer(self):
        trace = PiecewiseConstantBandwidth([(0.0, 10.0)])
        assert trace.finish_time(4.0, 0) == 4.0

    def test_start_before_first_breakpoint(self):
        trace = PiecewiseConstantBandwidth([(1.0, 10.0)])
        # Transfers started before the trace begins use the first rate from
        # the first breakpoint onward.
        assert trace.finish_time(0.0, 10) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantBandwidth([])
        with pytest.raises(ValueError):
            PiecewiseConstantBandwidth([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ValueError):
            PiecewiseConstantBandwidth([(0.0, -1.0)])


class TestSegmentAt:
    @given(breakpoints=breakpoint_lists(), offset=st.integers(0, 40), size=SIZES)
    def test_agrees_with_rate_at_and_finish_time(self, breakpoints, offset, size):
        trace = PiecewiseConstantBandwidth(breakpoints)
        time = offset * 0.125
        start, end, rate = trace.segment_at(time)
        assert start < end
        for probe in (time, max(time, start), (max(time, start) + end) / 2, math.nextafter(end, start)):
            if probe != math.inf:
                assert trace.rate_at(probe) == rate
        if time < breakpoints[0][0]:
            assert (start, rate) == breakpoints[0]  # clamped, like rate_at
        else:
            assert start <= time < end
            # The pipe's inline expression is finish_time's whenever it fits.
            if rate > 0 and time + size / rate <= end:
                assert trace.finish_time(time, size) == time + size / rate

    def test_piecewise_segments(self):
        trace = PiecewiseConstantBandwidth([(1.0, 10.0), (5.0, 0.0), (6.0, 20.0)])
        assert trace.segment_at(0.0) == (1.0, 5.0, 10.0)
        assert trace.segment_at(1.0) == (1.0, 5.0, 10.0)
        assert trace.segment_at(5.0) == (5.0, 6.0, 0.0)
        assert trace.segment_at(100.0) == (6.0, math.inf, 20.0)

    def test_constant_trace_is_one_infinite_segment(self):
        assert ConstantBandwidth(250.0).segment_at(3.0) == (-math.inf, math.inf, 250.0)
        assert ConstantBandwidth(None).segment_at(3.0) == (-math.inf, math.inf, math.inf)
