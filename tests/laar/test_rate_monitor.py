"""Tests for the Rate Monitor PE."""

from __future__ import annotations

import math

import pytest

from repro.core import Host
from repro.dsps import InputTrace, StreamPlatform, TraceSegment
from repro.errors import SimulationError
from repro.laar import RateMonitor
from repro.placement import balanced_placement

GIGA = 1.0e9


def build_platform(pipeline_descriptor, trace):
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    deployment = balanced_placement(pipeline_descriptor, hosts, 2)
    return StreamPlatform(deployment, {"src": trace})


class TestRateMonitor:
    def test_invalid_interval_rejected(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor, InputTrace([TraceSegment(4.0, 5.0)])
        )
        with pytest.raises(SimulationError):
            RateMonitor(platform, lambda rates: None, interval=0.0)

    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_non_finite_interval_rejected(self, pipeline_descriptor, interval):
        platform = build_platform(
            pipeline_descriptor, InputTrace([TraceSegment(4.0, 5.0)])
        )
        with pytest.raises(SimulationError, match="finite and > 0"):
            RateMonitor(platform, lambda rates: None, interval=interval)

    def test_measures_constant_rate(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor, InputTrace([TraceSegment(4.0, 10.0)])
        )
        reports = []
        RateMonitor(platform, reports.append, interval=1.0)
        platform.run(until=10.0)
        # After the first (partial) window, every report reads 4 t/s.
        steady = [r["src"] for r in reports[1:]]
        assert steady
        assert all(value == pytest.approx(4.0) for value in steady)

    def test_windows_do_not_double_count(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor, InputTrace([TraceSegment(4.0, 10.0)])
        )
        reports = []
        RateMonitor(platform, reports.append, interval=1.0)
        platform.run(until=10.0)
        total_measured = sum(r["src"] for r in reports)  # interval = 1 s
        assert total_measured <= platform.sources["src"].emitted

    def test_detects_rate_change_within_one_interval(
        self, pipeline_descriptor
    ):
        trace = InputTrace(
            [TraceSegment(4.0, 10.0, "Low"), TraceSegment(8.0, 10.0, "High")]
        )
        platform = build_platform(pipeline_descriptor, trace)
        reports = []
        monitor = RateMonitor(
            platform,
            lambda rates: reports.append((platform.env.now, rates["src"])),
            interval=1.0,
        )
        platform.run(until=20.0)
        above = [t for t, rate in reports if rate > 4.0]
        assert above and min(above) <= 12.0
        assert monitor.measurements  # the monitor keeps its own log

    def test_longer_interval_smooths(self, pipeline_descriptor):
        # The rate switch at t=8 falls inside the (6, 9] window.
        trace = InputTrace([TraceSegment(4.0, 8.0), TraceSegment(8.0, 10.0)])
        platform = build_platform(pipeline_descriptor, trace)
        reports = []
        RateMonitor(platform, lambda r: reports.append(r["src"]), interval=3.0)
        platform.run(until=18.0)
        assert len(reports) == 6
        # The straddling window reads a mixed average.
        assert any(4.0 < rate < 8.0 for rate in reports)

    def test_baseline_taken_at_monitor_start_not_construction(
        self, pipeline_descriptor
    ):
        """Regression: tuples emitted before the monitor process starts
        must not be charged to its first window. A monitor attached
        after 5 s of history would otherwise report the whole backlog
        (~24 tuples) as one window's rate."""
        platform = build_platform(
            pipeline_descriptor, InputTrace([TraceSegment(4.0, 20.0)])
        )
        platform.run(until=5.0)
        assert platform.sources["src"].emitted > 0
        reports = []
        RateMonitor(platform, lambda r: reports.append(r["src"]), interval=1.0)
        platform.run(until=10.0)
        assert reports
        assert all(rate == pytest.approx(4.0, abs=1.0) for rate in reports)

    def test_measurements_reach_the_telemetry_log(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor, InputTrace([TraceSegment(4.0, 10.0)])
        )
        RateMonitor(platform, lambda rates: None, interval=1.0)
        platform.run(until=5.0)
        events = platform.telemetry.events.of_type("rate.measurement")
        assert events
        assert all("src" in e.fields["rates"] for e in events)
