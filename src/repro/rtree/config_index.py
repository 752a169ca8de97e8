"""Input-configuration lookup for the HAController (Sec. 4.6).

The HAController "uses an R-Tree-like data structure that selects the input
configuration that is spatially closer to the current data rates and whose
components are all greater than the corresponding actual rates. This choice
guarantees that the chosen replica configuration will never underestimate
the actual system load."

:class:`ConfigurationIndex` keeps that selection rule and drops the tree:
configurations are points (one dimension per source), and a lookup is one
scan over C for the nearest point that dominates the measured rates
componentwise, the lowest configuration index winning an exact distance
tie. A scan suffices because every caller builds |C| <= 4
(``docs/performance.md``, "The configuration index is a scan"). When
the measured rates exceed every configuration (out-of-contract input),
the index falls back to the configuration with the highest total rate —
the most conservative activation available.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.configurations import ConfigurationSpace, InputConfiguration
from repro.errors import RTreeError

__all__ = ["ConfigurationIndex"]


class ConfigurationIndex:
    """Dominance-constrained nearest configuration lookup.

    ``tolerance`` relaxes the dominance test to
    ``config_rate * (1 + tolerance) >= measured_rate``: a configuration
    still "covers" a measurement that exceeds its nominal rate by at most
    the tolerance fraction. This models the paper's binning step ([12]),
    where each discrete rate is the *upper edge* of the observed rates it
    stands for — measurement noise around a nominal rate must not read as
    a configuration change. With ``tolerance=0`` the test is exact.

    ``telemetry`` is an optional :class:`repro.obs.Telemetry` (anything
    with a compatible ``emit``): every out-of-contract fallback emits a
    ``config.fallback`` event and is counted in :attr:`fallbacks`. It is
    the signal the control plane's re-planner reacts to — sustained
    fallbacks mean the tenant's input has left its contracted
    configuration space.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        tolerance: float = 0.0,
        telemetry=None,
    ) -> None:
        if tolerance < 0:
            raise RTreeError(f"tolerance must be >= 0, got {tolerance}")
        self._space = space
        self._sources = space.sources
        self._tolerance = tolerance
        self._telemetry = telemetry
        #: Out-of-contract lookups served by the fallback configuration.
        self.fallbacks = 0
        self._points = tuple(
            (config.index, config.rate_vector(self._sources))
            for config in space
        )
        # The out-of-contract fallback: the most load-hungry configuration.
        self._fallback_index = space.sorted_by_total_rate()[0]

    @property
    def space(self) -> ConfigurationSpace:
        return self._space

    @property
    def sources(self) -> tuple[str, ...]:
        return self._sources

    def lookup(self, rates: Mapping[str, float]) -> InputConfiguration:
        """The nearest configuration dominating the measured ``rates``.

        ``rates`` must provide a finite, non-negative measurement for
        every source. Falls back to the most resource-hungry configuration
        when no configuration dominates the measurement (the input
        exceeded its contract).
        """
        missing = [s for s in self._sources if s not in rates]
        if missing:
            raise RTreeError(f"no measured rate for sources {missing}")
        point = tuple(float(rates[s]) for s in self._sources)
        if any(value < 0 or not math.isfinite(value) for value in point):
            raise RTreeError(
                f"measured rates must be finite and >= 0, got {point}"
            )

        slack = 1.0 + self._tolerance
        found: int | None = None
        nearest = 0.0
        for index, vector in self._points:
            if not all(x * slack >= m for x, m in zip(vector, point)):
                continue
            total = 0.0
            for x, m in zip(vector, point):
                total += (x - m) ** 2
            # Compare the rooted distance, not ``total``: two totals can
            # round to one distance, and that tie goes to the lower index.
            distance = math.sqrt(total)
            if found is None or distance < nearest:
                found, nearest = index, distance
        if found is None:
            self.fallbacks += 1
            if self._telemetry is not None:
                self._telemetry.emit(
                    "config.fallback",
                    config=self._fallback_index,
                    rates={
                        source: rate
                        for source, rate in zip(self._sources, point)
                    },
                )
            return self._space[self._fallback_index]
        return self._space[found]

    def lookup_index(self, rates: Mapping[str, float]) -> int:
        return self.lookup(rates).index

    def __len__(self) -> int:
        return len(self._points)
