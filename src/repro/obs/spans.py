"""Sim-time span tracing for transition windows.

A span measures a window of *simulated* time between two events — the
failure-detection→re-election window, or a configuration-switch
transition from the HAController's decision to the last activation
command landing. Spans emit ``span.start`` / ``span.end`` events into
the shared :class:`~repro.obs.events.EventLog`, so the timeline renders
inline with drops and crashes, and completed spans stay queryable by
name for report tables.

Call :meth:`SpanTracer.begin` where the window opens, keep the returned
:class:`Span`, and call :meth:`Span.end` where it closes. Many spans of
the same name may be open at once (e.g. two hosts failing over
concurrently).

Durations are differences of the simulated clock, so they are exactly
reproducible for a fixed seed.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.events import EventLog

__all__ = ["Span", "SpanTracer"]


class Span:
    """One open (or finished) named window of simulated time."""

    __slots__ = ("name", "span_id", "start", "end_time", "fields", "_tracer")

    def __init__(
        self,
        tracer: "SpanTracer",
        span_id: int,
        name: str,
        start: float,
        fields: dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.start = start
        self.end_time: Optional[float] = None
        self.fields = fields
        self._tracer = tracer

    @property
    def duration(self) -> Optional[float]:
        """Simulated seconds from start to end; None while still open."""
        if self.end_time is None:
            return None
        return self.end_time - self.start

    def end(self, **fields: Any) -> "Span":
        """Close the span at the current simulated time (idempotent)."""
        if self.end_time is None:
            self._tracer._finish(self, fields)
        return self


class SpanTracer:
    """Creates spans against a clock and records them into an event log."""

    def __init__(self, events: EventLog, clock) -> None:
        self._events = events
        self._clock = clock
        self._next_id = 0
        #: Finished spans in end order (bounded by the run's span count,
        #: which is small: one per switch / failover, not per tuple).
        self.finished: list[Span] = []

    def begin(self, name: str, **fields: Any) -> Span:
        """Open a span named ``name`` at the current simulated time."""
        span_id = self._next_id
        self._next_id += 1
        span = Span(self, span_id, name, self._clock(), dict(fields))
        self._events.emit("span.start", span=span_id, name=name, **fields)
        return span

    def _finish(self, span: Span, fields: dict[str, Any]) -> None:
        span.end_time = self._clock()
        # A finished span never calls back, and ``finished`` holds it:
        # dropping its link here keeps the two out of a reference cycle.
        span._tracer = None
        span.fields.update(fields)
        self.finished.append(span)
        self._events.emit(
            "span.end",
            span=span.span_id,
            name=span.name,
            duration=span.duration,
            **span.fields,
        )

    def to_list(self) -> list[dict[str, Any]]:
        """The finished spans as plain records, in completion order."""
        return [
            {
                "name": span.name,
                "start": span.start,
                "duration": span.duration,
                "fields": dict(span.fields),
            }
            for span in self.finished
        ]

    def finished_named(self, name: str) -> list[Span]:
        """Completed spans of one name, in completion order."""
        return [s for s in self.finished if s.name == name]

    def durations(self, name: str) -> list[float]:
        """Durations (sim seconds) of completed spans of one name."""
        spans = self.finished_named(name)
        return [s.duration for s in spans if s.duration is not None]
