"""Tests for input traces."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsps import InputTrace, TraceSegment, two_level_trace
from repro.errors import SimulationError


class TestTraceSegment:
    def test_rejects_negative_rate(self):
        with pytest.raises(SimulationError):
            TraceSegment(rate=-1.0, duration=10.0)

    def test_rejects_zero_duration(self):
        with pytest.raises(SimulationError):
            TraceSegment(rate=1.0, duration=0.0)


class TestInputTrace:
    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            InputTrace([])

    def test_duration(self):
        trace = InputTrace(
            [TraceSegment(4.0, 10.0), TraceSegment(8.0, 5.0)]
        )
        assert trace.duration == 15.0

    def test_rate_at(self):
        trace = InputTrace(
            [TraceSegment(4.0, 10.0), TraceSegment(8.0, 5.0)]
        )
        assert trace.rate_at(0.0) == 4.0
        assert trace.rate_at(9.99) == 4.0
        assert trace.rate_at(10.0) == 8.0
        assert trace.rate_at(99.0) == 0.0  # silent past the end
        with pytest.raises(SimulationError):
            trace.rate_at(-1.0)

    def test_deterministic_arrivals_match_rate(self):
        trace = InputTrace([TraceSegment(4.0, 10.0)])
        arrivals = list(trace.arrival_times())
        assert len(arrivals) == 40
        assert arrivals[0] == pytest.approx(0.25)
        assert arrivals[-1] == pytest.approx(10.0)

    def test_arrivals_strictly_increasing(self):
        trace = two_level_trace(4.0, 8.0, duration=30.0)
        arrivals = list(trace.arrival_times())
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_zero_rate_segment_emits_nothing(self):
        trace = InputTrace(
            [TraceSegment(0.0, 5.0), TraceSegment(2.0, 5.0)]
        )
        arrivals = list(trace.arrival_times())
        assert all(t > 5.0 for t in arrivals)
        assert len(arrivals) == 10

    def test_jittered_arrivals_stay_in_segments(self):
        trace = InputTrace([TraceSegment(10.0, 20.0)])
        rng = random.Random(7)
        arrivals = list(trace.arrival_times(rng, jitter=0.3))
        assert all(0.0 < t <= 20.0 for t in arrivals)
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
        # Gaps average 1/rate: ~200 arrivals at rate 10 over 20 s.
        assert 180 <= len(arrivals) <= 220


class TestTwoLevelTrace:
    def test_structure(self):
        trace = two_level_trace(4.0, 8.0, duration=90.0, high_fraction=1 / 3)
        labels = [s.label for s in trace.segments]
        assert labels == ["Low", "High", "Low"]
        assert trace.duration == pytest.approx(90.0)

    def test_high_windows(self):
        trace = two_level_trace(4.0, 8.0, duration=90.0, high_fraction=1 / 3)
        windows = trace.segment_windows("High")
        assert windows == [(30.0, 60.0)]

    def test_high_at_start(self):
        trace = two_level_trace(
            4.0, 8.0, duration=90.0, high_fraction=1 / 3, high_position=0.0
        )
        assert trace.segments[0].label == "High"
        assert trace.segment_windows("High") == [(0.0, 30.0)]

    def test_invalid_fraction_rejected(self):
        with pytest.raises(SimulationError):
            two_level_trace(4.0, 8.0, duration=90.0, high_fraction=1.5)

    @settings(max_examples=30, deadline=None)
    @given(
        low=st.floats(min_value=0.5, max_value=10.0),
        ratio=st.floats(min_value=1.1, max_value=3.0),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        position=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_property_durations_partition_trace(
        self, low, ratio, fraction, position
    ):
        trace = two_level_trace(
            low, low * ratio, duration=60.0,
            high_fraction=fraction, high_position=position,
        )
        assert trace.duration == pytest.approx(60.0)
        high_total = sum(
            s.duration for s in trace.segments if s.label == "High"
        )
        assert high_total == pytest.approx(60.0 * fraction)
