"""Telemetry end-to-end: simulated runs emit the events the schema says.

These tests pin the acceptance contract of the observability layer: a
run of the platform (or the full LAAR application) produces drop,
failure, re-election and activation-switch events stamped in simulated
time, failover and config-switch spans measure the right windows, and
the whole stream is schema-clean and bit-identical across repeated runs.
"""

from __future__ import annotations

import pytest

from repro.core import (
    Host,
    OptimizationProblem,
    ReplicaId,
    ft_search,
)
from repro.dsps import (
    InputTrace,
    PlatformConfig,
    StreamPlatform,
    TraceSegment,
    two_level_trace,
)
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.obs.validate import validate_lines
from repro.placement import balanced_placement

GIGA = 1.0e9


def build_platform(descriptor, trace, **config):
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    deployment = balanced_placement(descriptor, hosts, 2)
    return StreamPlatform(
        deployment, {"src": trace}, config=PlatformConfig(**config)
    )


class TestKernelEvents:
    def test_run_start_and_end_emitted(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor, InputTrace([TraceSegment(4.0, 5.0)])
        )
        platform.run(until=5.0)
        events = platform.telemetry.events
        (start,) = events.of_type("sim.run.start")
        (end,) = events.of_type("sim.run.end")
        assert start.fields["until"] == 5.0
        assert end.time == 5.0
        assert end.fields["events_processed"] > 0


class TestFailureEvents:
    def test_crash_emits_failure_and_reelection_events(
        self, pipeline_descriptor
    ):
        platform = build_platform(
            pipeline_descriptor,
            InputTrace([TraceSegment(4.0, 10.0)]),
            failover_delay=1.0,
        )
        victim = ReplicaId("pe1", 0)
        platform.env.schedule(
            5.0, lambda: platform.crash_replica(victim)
        )
        platform.run(until=10.0)
        events = platform.telemetry.events

        (crash,) = events.of_type("replica.crash")
        assert crash.time == 5.0
        assert crash.fields["replica"] == "pe1#0"

        (lost,) = events.of_type("primary.lost")
        assert lost.fields == {
            "pe": "pe1", "replica": "pe1#0", "reason": "crash",
        }

        # Initial elections at t=0 for both PEs, plus the re-election
        # after the failover delay.
        elected = events.of_type("primary.elected")
        reelection = [e for e in elected if e.time > 0.0]
        assert len(reelection) == 1
        assert reelection[0].time == pytest.approx(6.0)
        assert reelection[0].fields["replica"] == "pe1#1"

    def test_failover_span_measures_the_no_primary_window(
        self, pipeline_descriptor
    ):
        platform = build_platform(
            pipeline_descriptor,
            InputTrace([TraceSegment(4.0, 10.0)]),
            failover_delay=1.5,
        )
        platform.env.schedule(
            4.0, lambda: platform.crash_replica(ReplicaId("pe2", 0))
        )
        platform.run(until=10.0)
        spans = platform.telemetry.spans
        (window,) = spans.finished_named("failover")
        assert window.start == 4.0
        assert window.duration == pytest.approx(1.5)
        assert window.fields["elected"] == "pe2#1"


class TestDropEvents:
    @pytest.fixture
    def saturated(self, pipeline_descriptor):
        # One-tuple queues under an offered rate far above capacity:
        # drops are guaranteed.
        platform = build_platform(
            pipeline_descriptor,
            InputTrace([TraceSegment(40.0, 10.0)]),
            queue_seconds=0.01,
        )
        platform.run(until=10.0)
        return platform.telemetry.events

    def test_drops_and_overflows_emitted(self, saturated):
        drops = saturated.of_type("tuple.drop")
        assert drops
        assert {"replica", "port", "primary"} <= drops[0].fields.keys()
        overflows = saturated.of_type("queue.overflow")
        assert overflows
        assert overflows[0].fields["capacity"] >= 1

    def test_overflow_only_on_transition(self, saturated):
        # queue.overflow marks full->overflow edges, not every drop.
        assert saturated.count("queue.overflow") <= saturated.count(
            "tuple.drop"
        )


class TestLaarEvents:
    @pytest.fixture
    def laar_run(self, pipeline_descriptor):
        hosts = [
            Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
            Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
        ]
        deployment = balanced_placement(pipeline_descriptor, hosts, 2)
        result = ft_search(OptimizationProblem(deployment, ic_target=0.5))
        assert result.strategy is not None
        trace = {"src": two_level_trace(4.0, 8.0, duration=90.0)}
        app = ExtendedApplication(
            deployment,
            result.strategy,
            trace,
            middleware_config=MiddlewareConfig(command_latency=0.05),
        )
        metrics = app.run()
        return app, metrics

    def test_switch_events_match_metrics(self, laar_run):
        app, metrics = laar_run
        switches = app.platform.telemetry.events.of_type("config.switch")
        assert [
            (event.time, event.fields["to"]) for event in switches
        ] == metrics.config_switches
        assert all(e.fields["commands"] >= 1 for e in switches)

    def test_switch_spans_cover_the_command_latency(self, laar_run):
        app, _ = laar_run
        spans = app.platform.telemetry.spans
        durations = spans.durations("config.switch")
        assert durations
        assert all(d == pytest.approx(0.05) for d in durations)

    def test_activation_events_accompany_switches(self, laar_run):
        app, metrics = laar_run
        events = app.platform.telemetry.events
        assert metrics.config_switches
        assert events.count("replica.activate") > 0
        assert events.count("replica.deactivate") > 0
        assert events.count("sla.check") >= events.count("config.switch")

    def test_event_stream_is_schema_clean(self, laar_run):
        app, _ = laar_run
        lines = app.platform.telemetry.events.to_jsonl().splitlines()
        assert validate_lines(lines) == []


class TestDeterminism:
    def test_identical_runs_produce_identical_jsonl(
        self, pipeline_descriptor
    ):
        def one_run() -> str:
            platform = build_platform(
                pipeline_descriptor,
                InputTrace([TraceSegment(6.0, 10.0)]),
                arrival_jitter=0.3,
                seed=7,
                queue_seconds=0.2,
            )
            platform.env.schedule(
                3.0, lambda: platform.crash_replica(ReplicaId("pe1", 0))
            )
            platform.run(until=12.0)
            return platform.telemetry.events.to_jsonl()

        assert one_run() == one_run()
