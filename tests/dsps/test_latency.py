"""End-to-end latency measurement tests.

The paper motivates LAAR with the observation that "load peaks can lead
to increased processing latency due to data queuing" (Sec. 1). These
tests check the latency instrumentation itself and then the motivating
phenomenon: under static replication a High burst inflates latency, while
LAAR's deactivation keeps it near the service-time floor.
"""

from __future__ import annotations

import pytest

from repro.core import Host, OptimizationProblem, ft_search, static_replication
from repro.dsps import (
    InputTrace,
    LatencyRecorder,
    StreamPlatform,
    TraceSegment,
    two_level_trace,
)
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.placement import balanced_placement

GIGA = 1.0e9


class TestLatencyRecorder:
    def test_empty_recorder(self):
        recorder = LatencyRecorder()
        assert recorder.mean() == 0.0
        assert recorder.percentile(0.99) == 0.0
        assert recorder.max() == 0.0
        assert len(recorder) == 0

    def test_mean_and_percentiles(self):
        recorder = LatencyRecorder()
        for i, latency in enumerate([0.1, 0.2, 0.3, 0.4, 1.0]):
            recorder.record(float(i), latency)
        assert recorder.mean() == pytest.approx(0.4)
        assert recorder.percentile(0.0) == 0.1
        assert recorder.percentile(0.99) == 1.0
        assert recorder.max() == 1.0

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            LatencyRecorder().percentile(1.5)

    def test_nearest_rank_pins(self):
        # Unified semantics (repro.obs.sketch.nearest_rank_index): for
        # n=4 the median is the ceil(0.5*4)=2nd order statistic — a
        # real sample, never an interpolated midpoint.
        recorder = LatencyRecorder()
        for i, latency in enumerate([0.4, 0.1, 0.3, 0.2]):
            recorder.record(float(i), latency)
        assert recorder.percentile(0.5) == 0.2
        assert recorder.percentile(0.75) == 0.3
        assert recorder.percentile(1.0) == 0.4

    def test_sample_buffer_is_live(self):
        recorder = LatencyRecorder()
        times, latencies = recorder.sample_buffer()
        recorder.record(1.0, 0.25)
        assert (times, latencies) == ([1.0], [0.25])
        assert recorder.samples == [(1.0, 0.25)]


def tight_deployment(pipeline_descriptor):
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    return balanced_placement(pipeline_descriptor, hosts, 2)


class TestPipelineLatency:
    def test_unloaded_latency_is_service_time_floor(
        self, pipeline_descriptor
    ):
        """At 1 t/s the pipeline is idle between tuples, so each stage
        runs alone on its host and gets the full 1e9 cycles/s under
        processor sharing: 2 stages x 0.1e9/1e9 = 0.2 s floor."""
        deployment = tight_deployment(pipeline_descriptor)
        platform = StreamPlatform(
            deployment,
            {"src": InputTrace([TraceSegment(1.0, 30.0, "Low")])},
        )
        metrics = platform.run()
        assert metrics.mean_latency() == pytest.approx(0.2, rel=0.05)

    def test_saturation_inflates_latency(self, pipeline_descriptor):
        """The Sec. 1 motivation: an overloaded deployment queues tuples,
        latency climbs towards the queue bound."""
        deployment = tight_deployment(pipeline_descriptor)
        platform = StreamPlatform(
            deployment,
            {"src": InputTrace([TraceSegment(8.0, 30.0, "High")])},
        )
        metrics = platform.run()
        # Queues hold 2 s of High input; sustained overload keeps them
        # full, so p99 latency far exceeds the 0.4 s floor.
        assert metrics.latency_percentile(0.99) > 2.0

    def test_laar_keeps_peak_latency_low(self, pipeline_descriptor):
        """Fig. 3's story in latency terms: during the burst, static
        replication queues (latency grows), LAAR does not."""
        deployment = tight_deployment(pipeline_descriptor)
        trace = {"src": two_level_trace(4.0, 8.0, duration=90.0)}

        static_run = ExtendedApplication(
            deployment,
            static_replication(deployment),
            trace,
            middleware_config=MiddlewareConfig(dynamic=False),
        ).run()

        result = ft_search(OptimizationProblem(deployment, ic_target=0.5))
        laar_run = ExtendedApplication(
            deployment, result.strategy, trace
        ).run()

        peak = (40.0, 58.0)
        static_peak_latency = static_run.mean_latency_in_window(*peak)
        laar_peak_latency = laar_run.mean_latency_in_window(*peak)
        assert static_peak_latency > 3.0 * laar_peak_latency
        assert laar_peak_latency < 1.0

    def test_latency_survives_failover(self, pipeline_descriptor):
        """After a primary crash the secondary resumes; latencies of
        post-failover tuples stay near the floor."""
        from repro.core import ReplicaId

        deployment = tight_deployment(pipeline_descriptor)
        platform = StreamPlatform(
            deployment,
            {"src": InputTrace([TraceSegment(2.0, 40.0, "Low")])},
        )
        platform.env.schedule_at(
            10.0,
            lambda: platform.crash_replica(ReplicaId("pe1", 0)),
        )
        metrics = platform.run()
        tail = metrics.mean_latency_in_window(20.0, 40.0)
        assert tail == pytest.approx(0.2, rel=0.2)


class TestLatencySummary:
    def test_empty_recorder_summary_is_stable(self):
        assert LatencyRecorder().summary() == {
            "count": 0, "mean": None, "p50": None, "p95": None, "max": None,
        }

    def test_summary_matches_point_queries(self):
        recorder = LatencyRecorder()
        for i, latency in enumerate([0.1, 0.2, 0.3, 0.4, 1.0]):
            recorder.record(float(i), latency)
        summary = recorder.summary()
        assert summary["count"] == 5
        assert summary["mean"] == pytest.approx(recorder.mean())
        assert summary["p50"] == recorder.percentile(0.50)
        assert summary["p95"] == recorder.percentile(0.95)
        assert summary["max"] == recorder.max()
