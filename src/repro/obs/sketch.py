"""Deterministic log-bucket latency sketch with bounded relative error.

A :class:`LogHistogram` buckets values on a geometric grid (``growth``
per bucket, default 1.05 for a <=5% one-sided relative error) and keeps
exact running ``count``/``sum``/``min``/``max`` scalars, so memory is
bounded by the dynamic range of the data, never by the sample count.

Everything here is plain integer/float arithmetic on a fixed grid —
bucket indices depend only on the value, never on arrival order — so
windowed summaries are byte-identical across worker counts and engine
modes. :func:`_bucket_index` is the one bucket rule.

:func:`sorted_summary` answers what :meth:`LogHistogram.summary` would
for a sketch on the default grid fed a list of values one by one, from
one sort of the list: the bucket index never decreases as the value
grows, so the bucket holding the nearest-rank sample is the bucket the
sketch's cumulative walk stops in. The SLO engine (:mod:`repro.obs.slo`)
summarises its latency windows this way, with no ``add`` per sample.

:func:`nearest_rank_index` is the single definition of nearest-rank
percentile semantics shared with :class:`repro.dsps.metrics.
LatencyRecorder`. :func:`left_sum` is the one float sum of the byte
paths.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Iterable, Optional

__all__ = [
    "LogHistogram",
    "left_sum",
    "nearest_rank_index",
    "sorted_summary",
]

#: The default grid (``LogHistogram()``, :func:`sorted_summary`).
_GROWTH = 1.05
_MIN_VALUE = 1e-6


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from ``0.0``, rounding each add.

    What a running ``total += value`` gives, and what ``sum()`` gave
    before Python 3.12; from 3.12 on ``sum()`` compensates float sums,
    which would move every byte it feeds on an allowed interpreter.
    """
    return reduce(add, values, 0.0)


def _bucket_index(value: float, min_value: float, log_growth: float) -> int:
    """The bucket of ``value`` on the grid (``log_growth`` is
    ``log(growth)``): 0 at or below ``min_value``, else the ``i`` with
    ``value`` in ``(min_value * growth**(i-1), min_value * growth**i]``."""
    if value <= min_value:
        return 0
    return math.ceil(math.log(value / min_value) / log_growth)


def _bound(index: int, min_value: float, growth: float) -> float:
    """Upper bound of bucket ``index`` (``min_value`` for bucket 0)."""
    if index <= 0:
        return min_value
    return min_value * growth**index


def _refuse(value: float) -> ValueError:
    return ValueError(
        f"sketch values must be finite and >= 0, got {value!r}"
    )


def sorted_summary(
    values: list[float], total: float
) -> dict[str, Optional[float]]:
    """:meth:`LogHistogram.summary` of a default-grid sketch fed
    ``values`` one by one, ``total`` being the sum it would keep
    (``left_sum(values)``, or the running sum of window sums).

    Count, min and max come from one ``sorted()``; p50 and p95 are the
    bucket bound of the nearest-rank sample clamped into [min, max], as
    :meth:`LogHistogram.percentile` computes them. A negative, infinite
    or NaN value raises the ``ValueError`` ``add`` raises, naming the
    first such value in ``values``' order.
    """
    count = len(values)
    if not count:
        return {
            "count": 0, "mean": None, "p50": None, "p95": None, "max": None,
        }
    ordered = sorted(values)
    low = ordered[0]
    high = ordered[-1]
    if not (low >= 0.0 and total < math.inf):
        # A NaN, an infinity or a negative value (or a finite overflow,
        # which passes): find the culprit in arrival order.
        for value in values:
            if not 0.0 <= value < math.inf:
                raise _refuse(value)
    log_growth = math.log(_GROWTH)
    bounds = []
    for q in (0.50, 0.95):
        index = _bucket_index(
            ordered[nearest_rank_index(q, count)], _MIN_VALUE, log_growth
        )
        bound = _bound(index, _MIN_VALUE, _GROWTH)
        bounds.append(max(low, min(bound, high)))
    return {
        "count": count,
        "mean": total / count,
        "p50": bounds[0],
        "p95": bounds[1],
        "max": high,
    }


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

    def __init__(
        self, growth: float = _GROWTH, min_value: float = _MIN_VALUE
    ) -> None:
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
            raise _refuse(value)
        index = _bucket_index(value, self.min_value, self._log_growth)
        counts = self._counts
        counts[index] = counts.get(index, 0) + count
        self._count += count
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def bucket_value(self, index: int) -> float:
        """Upper bound of bucket ``index`` (``min_value`` for bucket 0)."""
        return _bound(index, self.min_value, self.growth)

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
