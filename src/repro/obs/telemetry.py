"""The telemetry facade: one object wiring events and spans.

A :class:`Telemetry` instance is created per simulated platform (see
``StreamPlatform``) and handed down to every component that wants to
observe the run. It bundles:

* ``events`` — the :class:`~repro.obs.events.EventLog` ring buffer,
* ``spans`` — the :class:`~repro.obs.spans.SpanTracer`,
* ``tuple_tracer`` — an optional sampled per-tuple lifecycle tracer
  (None unless ``tuple_trace_every > 0``, so the data hot path pays
  only a ``is not None`` check when tracing is off).

Everything is stamped in *simulated* time via the ``clock`` callable, so
telemetry is bit-identical across runs and worker counts for a fixed
seed.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.events import EventLog
from repro.obs.spans import SpanTracer

__all__ = ["Telemetry", "TupleTracer"]


class TupleTracer:
    """Sampled per-tuple lifecycle traces: emit → enqueue → process → sink.

    Tuples are sampled at the source: every ``every``-th emission of each
    source is selected, identified downstream by its birth timestamp
    (unique per source emission in the simulator). Each lifecycle stage
    of a sampled tuple becomes one ``tuple.trace`` event.

    The hot-path cost for *unsampled* tuples is a single set lookup; the
    cost when tracing is disabled is zero, because the platform leaves
    ``tuple_tracer`` as None and emitters guard with ``is not None``.
    """

    __slots__ = ("_events", "_every", "_emit_counts", "_live")

    def __init__(self, events: EventLog, every: int) -> None:
        if every < 1:
            raise ValueError(f"sampling interval must be >= 1, got {every}")
        self._events = events
        self._every = every
        self._emit_counts: dict[str, int] = {}
        self._live: set[float] = set()

    def on_emit(self, source: str, birth: float) -> None:
        """Called for every source emission; samples every N-th tuple."""
        count = self._emit_counts.get(source, 0)
        self._emit_counts[source] = count + 1
        if count % self._every:
            return
        self._live.add(birth)
        self._events.emit(
            "tuple.trace", stage="emit", birth=birth, source=source
        )

    def stage(self, stage: str, birth: float, **fields) -> None:
        """Record one lifecycle stage for a tuple, if it was sampled."""
        if birth not in self._live:
            return
        if stage in ("sink", "drop"):
            self._live.discard(birth)
        self._events.emit("tuple.trace", stage=stage, birth=birth, **fields)


class Telemetry:
    """Per-run bundle of event log and span tracer."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        event_buffer: int = 65536,
        tuple_trace_every: int = 0,
    ) -> None:
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.events = EventLog(clock=self.clock, maxlen=event_buffer)
        self.spans = SpanTracer(self.events, self.clock)
        self.tuple_tracer: Optional[TupleTracer] = (
            TupleTracer(self.events, tuple_trace_every)
            if tuple_trace_every > 0
            else None
        )

    def emit(self, type_: str, **fields) -> None:
        """Shorthand for ``telemetry.events.emit(...)``."""
        self.events.emit(type_, **fields)
