"""The Rate Monitor PE (Sec. 4.6).

"At runtime, the Rate Monitor PE periodically measures the data rates
from sources and outputs this measurement result."

The simulated monitor samples each source's emitted-tuple counter on a
fixed interval and reports the per-window average rate to its listener
(the HAController). Window-diff sampling is exact — no tuple is counted
in two windows — but a window's count is small: at the corpus's rates
(Low 1.1-3.0 tuples/s) the paper's 2 s window counts 2-9 tuples, so a
reading moves in steps of 0.5 tuples/s, about the Low-High gap
(0.6-1.6 tuples/s). Under arrival jitter the measured rate does not
settle on the trace's nominal rate, and the controller can read the
wrong configuration well after a change (EXPERIMENTS.md, residual 4).
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from repro.dsps.platform import StreamPlatform
from repro.errors import SimulationError

__all__ = ["RateMonitor"]


class RateMonitor:
    """Periodically measures source output rates and notifies a listener."""

    def __init__(
        self,
        platform: StreamPlatform,
        listener: Callable[[Mapping[str, float]], None],
        interval: float = 1.0,
    ) -> None:
        if not 0 < interval < math.inf:
            raise SimulationError(
                f"monitor interval must be finite and > 0: {interval}"
            )
        self._platform = platform
        self._listener = listener
        self.interval = interval
        self._last_counts: dict[str, int] = {}
        self.measurements: list[tuple[float, dict[str, float]]] = []
        platform.env.schedule(0.0, self._start)

    def _start(self) -> None:
        # The baseline counts are snapshotted when the monitor's start
        # event fires, not at construction: anything the sources emit
        # between attaching the monitor and the simulation actually
        # running must not be charged to the first window.
        self._last_counts = {
            name: source.emitted
            for name, source in self._platform.sources.items()
        }
        self._platform.env.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        env = self._platform.env
        rates = self._measure()
        self.measurements.append((env.now, rates))
        self._platform.telemetry.emit("rate.measurement", rates=rates)
        self._listener(rates)
        env.schedule(self.interval, self._tick)

    def _measure(self) -> dict[str, float]:
        rates: dict[str, float] = {}
        last = self._last_counts
        for name, source in self._platform.sources.items():
            count = source.emitted
            # A source unseen at baseline time charges its whole history
            # to this window — the overestimate is the safe direction for
            # the never-underestimate guarantee.
            rates[name] = (count - last.get(name, 0)) / self.interval
            last[name] = count
        return rates
