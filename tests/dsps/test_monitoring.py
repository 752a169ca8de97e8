"""Tests for the runtime CPU sampler."""

from __future__ import annotations

import math

import pytest

from repro.core import Host
from repro.dsps import CpuSampler, InputTrace, StreamPlatform, TraceSegment
from repro.errors import SimulationError
from repro.placement import balanced_placement

GIGA = 1.0e9


def build_platform(pipeline_descriptor, trace):
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    deployment = balanced_placement(pipeline_descriptor, hosts, 2)
    return StreamPlatform(deployment, {"src": trace})


class TestValidation:
    def test_bad_interval_rejected(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor, InputTrace([TraceSegment(1.0, 5.0)])
        )
        with pytest.raises(SimulationError):
            CpuSampler(platform, interval=0.0)

    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_non_finite_interval_rejected(self, pipeline_descriptor, interval):
        platform = build_platform(
            pipeline_descriptor, InputTrace([TraceSegment(1.0, 5.0)])
        )
        with pytest.raises(SimulationError, match="finite and > 0"):
            CpuSampler(platform, interval=interval)


class TestCpuSampler:
    def test_utilization_tracks_load(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor, InputTrace([TraceSegment(4.0, 20.0, "Low")])
        )
        sampler = CpuSampler(platform, interval=1.0)
        platform.run(until=20.0)
        # Low with everything active: 1.6e9 of 2e9 cycles/s = 0.8.
        steady = sampler.utilization[2:18]
        assert all(u == pytest.approx(0.8, abs=0.1) for u in steady)

    def test_idle_platform_reads_zero(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor, InputTrace([TraceSegment(0.0, 5.0)])
        )
        sampler = CpuSampler(platform, interval=1.0)
        platform.run(until=5.0)
        assert all(u == 0.0 for u in sampler.utilization)
