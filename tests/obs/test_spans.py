"""Sim-time spans: windows between events, rendered into the log."""

from __future__ import annotations

from repro.obs import EventLog, SpanTracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_tracer() -> tuple[SpanTracer, EventLog, FakeClock]:
    clock = FakeClock()
    events = EventLog(clock=clock)
    return SpanTracer(events, clock), events, clock


class TestSpanLifecycle:
    def test_duration_is_sim_time_difference(self):
        tracer, _, clock = make_tracer()
        span = tracer.begin("failover", pe="pe0")
        assert span.duration is None
        clock.now = 2.5
        span.end()
        assert span.duration == 2.5

    def test_start_and_end_events_emitted(self):
        tracer, events, clock = make_tracer()
        span = tracer.begin("failover", pe="pe0")
        clock.now = 1.0
        span.end(elected="pe0#1")
        start, end = events.events()
        assert start.type == "span.start"
        assert start.fields == {"span": 0, "name": "failover", "pe": "pe0"}
        assert end.type == "span.end"
        assert end.fields["duration"] == 1.0
        assert end.fields["elected"] == "pe0#1"

    def test_end_is_idempotent(self):
        tracer, events, clock = make_tracer()
        span = tracer.begin("window")
        clock.now = 1.0
        span.end()
        clock.now = 9.0
        span.end()
        assert span.duration == 1.0
        assert events.count("span.end") == 1


class TestConcurrentSpans:
    def test_same_name_spans_may_overlap(self):
        tracer, _, clock = make_tracer()
        first = tracer.begin("failover", pe="pe0")
        second = tracer.begin("failover", pe="pe1")
        clock.now = 1.0
        second.end()
        clock.now = 3.0
        first.end()
        assert first.span_id != second.span_id
        # finished is completion-ordered.
        assert [s.fields["pe"] for s in tracer.finished_named("failover")] == [
            "pe1", "pe0",
        ]
        assert tracer.durations("failover") == [1.0, 3.0]

    def test_durations_skip_open_spans(self):
        tracer, _, clock = make_tracer()
        tracer.begin("failover")
        done = tracer.begin("failover")
        clock.now = 2.0
        done.end()
        assert tracer.durations("failover") == [2.0]
