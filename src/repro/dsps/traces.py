"""Input traces: the rate timeline a simulated source plays back.

The paper's experiments run each application on a 5-minute input trace
with the "High" configuration active for one third of the trace
(Sec. 5.2). A trace is a piecewise-constant sequence of rate segments;
sources emit either with deterministic spacing (1/rate) or with jittered
gaps — the latter reproduces the input-rate "glitches" the paper blames
for the residual drops of the dynamic variants.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import SimulationError

__all__ = ["TraceSegment", "InputTrace", "two_level_trace"]


@dataclass(frozen=True)
class TraceSegment:
    """A constant-rate stretch of the input: ``rate`` t/s for ``duration`` s."""

    rate: float
    duration: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.rate < 0 or not math.isfinite(self.rate):
            raise SimulationError(f"segment rate must be >= 0, got {self.rate}")
        if self.duration <= 0 or not math.isfinite(self.duration):
            raise SimulationError(
                f"segment duration must be > 0, got {self.duration}"
            )


class InputTrace:
    """A piecewise-constant rate timeline for one source."""

    def __init__(self, segments: Sequence[TraceSegment]) -> None:
        if not segments:
            raise SimulationError("trace has no segments")
        self._segments = tuple(segments)

    @property
    def segments(self) -> tuple[TraceSegment, ...]:
        return self._segments

    @property
    def duration(self) -> float:
        return sum(s.duration for s in self._segments)

    def rate_at(self, time: float) -> float:
        """The nominal rate at absolute trace time ``time``."""
        if time < 0:
            raise SimulationError(f"negative trace time {time}")
        elapsed = 0.0
        for segment in self._segments:
            elapsed += segment.duration
            if time < elapsed:
                return segment.rate
        return 0.0  # past the end of the trace: the source is silent

    def segment_windows(self, label: str) -> list[tuple[float, float]]:
        """The [start, end) windows during which ``label`` is active."""
        windows = []
        start = 0.0
        for segment in self._segments:
            end = start + segment.duration
            if segment.label == label:
                windows.append((start, end))
            start = end
        return windows

    def arrival_times(
        self,
        rng: random.Random | None = None,
        jitter: float = 0.0,
    ) -> Iterator[float]:
        """Tuple emission times over the whole trace.

        Two emission models, both confined to each segment's window and
        strictly increasing:

        * ``rng is None`` — deterministic spacing (1/rate);
        * ``rng`` given — jittered-deterministic: gaps are
          ``(1/rate) * U(1 - jitter, 1 + jitter)``. This models the input
          "glitches" the paper observes (short bursts that pressure
          queues) while keeping window-averaged rates close to nominal.
        """
        if not 0.0 <= jitter < 1.0:
            raise SimulationError(f"jitter must be in [0, 1), got {jitter}")
        start = 0.0
        for segment in self._segments:
            end = start + segment.duration
            if segment.rate > 0:
                period = 1.0 / segment.rate
                if rng is None:
                    time = start + period
                    while time <= end:
                        yield time
                        time += period
                else:
                    time = start + period * rng.uniform(
                        1.0 - jitter, 1.0 + jitter
                    )
                    while time <= end:
                        yield time
                        time += period * rng.uniform(
                            1.0 - jitter, 1.0 + jitter
                        )
            start = end


def two_level_trace(
    low_rate: float,
    high_rate: float,
    duration: float,
    high_fraction: float = 1.0 / 3.0,
    high_position: float = 0.5,
) -> InputTrace:
    """The paper's experimental trace shape: Low, one High burst, Low.

    ``high_fraction`` of the trace is spent in the High configuration
    (1/3 in Sec. 5.2), centred at ``high_position`` (a fraction of the
    trace length).
    """
    if not 0.0 < high_fraction < 1.0:
        raise SimulationError(
            f"high_fraction must be in (0, 1), got {high_fraction}"
        )
    if duration <= 0:
        raise SimulationError(f"duration must be > 0, got {duration}")
    high_length = duration * high_fraction
    high_start = (duration - high_length) * max(
        0.0, min(1.0, high_position)
    )
    segments = []
    if high_start > 0:
        segments.append(TraceSegment(low_rate, high_start, "Low"))
    segments.append(TraceSegment(high_rate, high_length, "High"))
    tail = duration - high_start - high_length
    if tail > 0:
        segments.append(TraceSegment(low_rate, tail, "Low"))
    return InputTrace(segments)
