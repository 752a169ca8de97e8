"""Deterministic log-bucket latency sketch with bounded relative error.

The SLO engine (:mod:`repro.obs.slo`) needs per-window latency
percentiles at 10k-tenant scale without retaining raw samples. A
:class:`LogHistogram` buckets values on a geometric grid (``growth``
per bucket, default 1.05 for a <=5% one-sided relative error) and keeps
exact running ``count``/``sum``/``min``/``max`` scalars, so memory is
bounded by the dynamic range of the data, never by the sample count.

Everything here is plain integer/float arithmetic on a fixed grid —
bucket indices depend only on the value, never on arrival order — so
merged or windowed sketches are byte-identical across worker counts
and engine modes.

:func:`nearest_rank_index` is the single definition of nearest-rank
percentile semantics shared with :class:`repro.dsps.metrics.
LatencyRecorder`.
"""

from __future__ import annotations

import math
from typing import Any, Optional

__all__ = ["LogHistogram", "nearest_rank_index"]


def nearest_rank_index(q: float, n: int) -> int:
    """0-based nearest-rank index for quantile ``q`` over ``n`` samples.

    The classical nearest-rank definition ``ceil(q * n)`` (1-based),
    clamped into ``[0, n - 1]`` so ``q = 0.0`` selects the minimum and
    ``q = 1.0`` the maximum.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if n <= 0:
        raise ValueError("no samples")
    return max(0, min(n - 1, math.ceil(q * n) - 1))


class LogHistogram:
    """Fixed-growth geometric histogram over positive values.

    Values at or below ``min_value`` land in bucket 0; bucket ``i > 0``
    covers ``(min_value * growth**(i-1), min_value * growth**i]``.
    Percentiles return the bucket's upper bound clamped into the exact
    observed ``[min, max]`` range, so the relative error versus the
    exact nearest-rank sample is strictly below ``growth - 1`` for
    values above ``min_value`` (and the absolute error is at most
    ``min_value`` below it).
    """

    __slots__ = (
        "growth",
        "min_value",
        "_log_growth",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, growth: float = 1.05, min_value: float = 1e-6) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        if min_value <= 0.0:
            raise ValueError(f"min_value must be > 0, got {min_value}")
        self.growth = growth
        self.min_value = min_value
        self._log_growth = math.log(growth)
        self._counts: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def add(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times). Hot path — keep it lean."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if not 0.0 <= value < math.inf:  # negative, infinite or NaN
            raise ValueError(
                f"sketch values must be finite and >= 0, got {value!r}"
            )
        if value <= self.min_value:
            index = 0
        else:
            index = math.ceil(
                math.log(value / self.min_value) / self._log_growth
            )
        counts = self._counts
        counts[index] = counts.get(index, 0) + count
        self._count += count
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` into this sketch (same grid required)."""
        if other.growth != self.growth or other.min_value != self.min_value:
            raise ValueError("cannot merge sketches with different grids")
        counts = self._counts
        for index, count in other._counts.items():
            counts[index] = counts.get(index, 0) + count
        self._count += other._count
        self._sum += other._sum
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max

    def bucket_value(self, index: int) -> float:
        """Upper bound of bucket ``index`` (``min_value`` for bucket 0)."""
        if index <= 0:
            return self.min_value
        return self.min_value * self.growth**index

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile; 0.0 on an empty sketch.

        Mirrors ``LatencyRecorder.percentile`` (0.0 on empty) so sketch
        and exact recorder answers are interchangeable in reports.
        """
        if self._count == 0:
            return 0.0
        rank = nearest_rank_index(q, self._count)
        cumulative = 0
        value = self.min_value
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative > rank:
                value = self.bucket_value(index)
                break
        return max(self._min, min(value, self._max))

    def summary(self) -> dict[str, Optional[float]]:
        """Count/mean/p50/p95/max, mirroring ``LatencyRecorder.summary``."""
        if self._count == 0:
            return {
                "count": 0,
                "mean": None,
                "p50": None,
                "p95": None,
                "max": None,
            }
        return {
            "count": self._count,
            "mean": self._sum / self._count,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "max": self._max,
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (bucket keys stringified, sorted order)."""
        return {
            "growth": self.growth,
            "min_value": self.min_value,
            "count": self._count,
            "sum": self._sum,
            "min": None if self._count == 0 else self._min,
            "max": None if self._count == 0 else self._max,
            "buckets": {
                str(index): self._counts[index]
                for index in sorted(self._counts)
            },
        }
