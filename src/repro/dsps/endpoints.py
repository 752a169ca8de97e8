"""Source and sink runtimes for the platform simulator.

Sources play back an :class:`~repro.dsps.traces.InputTrace`, emitting each
tuple to every replica of their successor PEs (and to successor sinks);
sinks count arrivals and keep a per-second output-rate series. Neither is
replicated: the paper's failure models only crash PE replicas and hosts
running PEs.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.dsps.metrics import LatencyRecorder, TimeSeries
from repro.dsps.traces import InputTrace
from repro.errors import SimulationError
from repro.sim import Environment

__all__ = ["SourceOperator", "SinkOperator"]


class SourceOperator:
    """Plays an input trace and fans tuples out to successor replicas."""

    def __init__(
        self,
        env: Environment,
        name: str,
        trace: InputTrace,
        deliver: Callable[[str], None],
        series: TimeSeries,
        rng: Optional[random.Random] = None,
        jitter: float = 0.0,
        engine=None,
    ) -> None:
        self._env = env
        self.name = name
        self.trace = trace
        self._deliver = deliver
        self._series = series
        self._rng = rng
        self._jitter = jitter
        self.emitted = 0
        if engine is not None:
            # Engine-managed mode: the batched engine replays the same
            # arrival recurrence through a cursor instead of heap
            # events, so emissions never touch the event heap.
            engine.register_source(self)
        else:
            self._arrivals = self.arrivals()
            self._previous = 0.0
            # The start event draws the first arrival once the run
            # starts, so sources draw in construction order.
            env.schedule(0.0, self._schedule_next)

    def arrivals(self):
        """The trace's arrival-time generator with this source's rng.

        The generator body does not run (and draws no randomness) until
        first ``next()``.
        """
        return self.trace.arrival_times(self._rng, self._jitter)

    def step_back(self, gap: float) -> SimulationError:
        """The error for an arrival earlier than the one before it (a
        negative or NaN gap); both execution modes raise this text."""
        return SimulationError(
            f"source {self.name}: inter-arrival gap {gap!r}"
            " is negative or NaN"
        )

    def fire(self) -> None:
        """One emission at the current simulated time."""
        self.emitted += 1
        self._series.record(self._env.now)
        self._deliver(self.name)

    def _arrive(self) -> None:
        self.fire()
        self._schedule_next()

    def _schedule_next(self) -> None:
        """Draw the next arrival and schedule it; the stream's end
        schedules nothing."""
        arrival = next(self._arrivals, None)
        if arrival is None:
            return
        gap = arrival - self._previous
        if not gap >= 0:
            raise self.step_back(gap)
        self._previous = arrival
        self._env.schedule(gap, self._arrive)


class SinkOperator:
    """Counts tuples reaching an external destination and their latency."""

    def __init__(
        self,
        env: Environment,
        name: str,
        series: TimeSeries,
        latency: LatencyRecorder | None = None,
        tracer=None,
    ) -> None:
        self._env = env
        self.name = name
        self._series = series
        self._latency = latency if latency is not None else LatencyRecorder()
        self._tracer = tracer
        self.received = 0
        # The live series buckets and latency columns, written inline.
        self._buckets = series.bucket_map()
        self._times, self._latencies = self._latency.sample_buffer()

    def on_tuple(self, from_component: str, birth: float | None = None) -> None:
        # TimeSeries.record and LatencyRecorder.record, inline: this
        # runs once per sink arrival.
        self.received += 1
        now = self._env._now
        buckets = self._buckets
        second = int(now)
        buckets[second] = buckets.get(second, 0) + 1
        if birth is not None:
            self._times.append(now)
            self._latencies.append(now - birth)
            if self._tracer is not None:
                self._tracer.stage("sink", birth, sink=self.name)

    @property
    def series(self) -> TimeSeries:
        return self._series

    @property
    def latency(self) -> LatencyRecorder:
        return self._latency
