"""Measurement substrate of the closed-loop benchmark.

Three things live here and nothing about any particular workload:

* **Host-speed calibration.** The box this benchmark was sized on
  changes speed under the benchmark's feet: a fixed pure-Python spin
  loop reads 0.72 ms, then 1.0 ms for twenty seconds, then 2 ms for two
  (a busy SMT sibling, a descheduled vCPU). Raw pass times of identical
  work therefore spread by 15-30 % between runs, wider than any bound a
  regression gate could use. Every timed region is instead expressed in
  *reference seconds*: between ops the :class:`Meter` runs slices of that
  spin loop (keeping them at ``CAL_SHARE`` of the work time), and a
  duration is divided by ``(slice / CAL_REF_S) ** CAL_EXPONENT`` of the
  slices next to it. The exponent is below 1 because the program slows
  down less than the short, cache-cold slices do: regressing block times
  of the data plane, the elastic data plane and FT-Search on the slice
  time over 5-minute recordings gave slopes of 0.85, 0.72 and 0.69
  (parent commit); ten-seed runs corrected with exponent 1 fell 7-15 %
  as the host went from x1.1 to x1.8, and with 0.75 the simulator-heavy
  workloads rose 5 % from x1.1 to x1.4 while the searching one stayed
  flat, so 0.8 it is. Probe on the parent
  commit, 20-pass blocks: spread of raw times 0.16 / 0.14 / 0.11,
  of times per slice 0.037 / 0.042 / 0.046.
* **Spans.** With tracing on, every ``meter.span(...)`` is recorded
  (name, start, end, parent, op) in memory; with tracing off only spans
  that name a ``section`` are timed, because two end-to-end metrics need
  the seconds spent in the control plane and in the data plane.
* **Statistics** used by every report: median, quartiles, percentiles.
"""

from __future__ import annotations

import contextlib
import heapq
import statistics
import time
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

__all__ = [
    "CAL_REF_S",
    "Meter",
    "PassTiming",
    "calibrated",
    "percentile",
    "quartiles",
    "self_times",
    "summary",
]

_now = time.perf_counter

#: Iterations of one calibration slice, and what one slice takes on the
#: unloaded 2.1 GHz box the workloads were sized on. Only the ratio of a
#: measured slice to this constant is ever used, so the constant fixes
#: the scale of "reference seconds" and nothing else.
CAL_ITERS = 1250
CAL_REF_S = 0.72e-3
#: How much of the slices' slowdown the program shares (see above).
CAL_EXPONENT = 0.8
#: Calibration time as a share of measured work time.
CAL_SHARE = 0.10
#: Slices pooled (at least) into one op's local speed estimate.
_POOL = 4


def _cal_slice() -> float:
    """One slice of the spin loop: a heap of tuples (allocation, C-level
    comparisons) and float arithmetic over a small list (bytecode). Of
    the kernels tried it tracked all three engines most closely."""
    start = _now()
    heap: list[tuple[float, int]] = []
    cells = [0.5] * 64
    acc = 0.0
    x = 12345
    for i in range(CAL_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x * 1e-6, i))
        if i & 1:
            heapq.heappop(heap)
        j = i & 63
        value = cells[j] + 1.0
        if value > acc:
            acc = value * 0.5
        else:
            acc += 0.25
        cells[j] = value * 0.999
    return _now() - start


def _scale(slices: Sequence[float]) -> float:
    """By how much durations measured next to ``slices`` are divided."""
    return (statistics.fmean(slices) / CAL_REF_S) ** CAL_EXPONENT


_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("_meter", "_name", "_section", "_start", "_id", "_parent")

    def __init__(self, meter: "Meter", name: str, section: Optional[str]):
        self._meter = meter
        self._name = name
        self._section = section

    def __enter__(self) -> None:
        meter = self._meter
        if meter.trace:
            self._id = meter._next_id
            meter._next_id += 1
            self._parent = meter._current
            meter._current = self._id
        self._start = _now()

    def __exit__(self, *exc: object) -> None:
        end = _now()
        meter = self._meter
        if self._section is not None:
            sections = meter._op_sections
            sections[self._section] = (
                sections.get(self._section, 0.0) + end - self._start
            )
        if meter.trace:
            meter._current = self._parent
            meter.spans.append(
                (
                    self._id,
                    self._name,
                    self._start,
                    end,
                    self._parent,
                    meter._op_id,
                )
            )


@dataclass
class PassTiming:
    """One pass, reduced: reference seconds unless the name says raw."""

    wall: float
    wall_raw: float
    op_latency: list[float]
    #: Seconds per named section, summed over the ops.
    sections: dict[str, float]
    #: What the pass's durations were divided by (1.0 = reference host).
    speed: float
    spans: list[tuple]
    started: float
    ended: float


class Meter:
    """Times the ops of one pass and calibrates between them.

    Usage, once per pass::

        meter = Meter(trace=False)
        for i, tenant in enumerate(tenants):
            with meter.op(i):
                with meter.span("fleet.controller.submit", section="control"):
                    controller.submit(tenant)
        timing = meter.finish()

    Time outside ``op`` blocks (pass prologue and epilogue) is scaled by
    the pass-wide speed estimate; time inside by the slices nearest the
    op. Calibration time itself is excluded from every figure.
    """

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.spans: list[tuple] = []
        self._next_id = 0
        self._current: Optional[int] = None
        self._op_id: Optional[int] = None
        self._op_sections: dict[str, float] = {}
        self._ops: list[tuple[float, dict[str, float]]] = []
        # _gaps[i] holds the slices run between op i-1 and op i.
        self._gaps: list[list[float]] = [[]]
        self._work = 0.0
        self._cal = 0.0
        # Calibration seconds that fall inside [_started, finish()].
        self._cal_inside = 0.0
        self._calibrate(minimum=_POOL)
        self._cal_inside = 0.0
        self._started = _now()

    def span(self, name: str, section: Optional[str] = None):
        """Context manager around one call into a layer."""
        if self.trace or section is not None:
            return _Span(self, name, section)
        return _NULL

    def timed(self, name: str):
        """A span that is timed even with tracing off (replays)."""
        return _Span(self, name, name)

    def op(self, op_id: int) -> "_Op":
        return _Op(self, op_id)

    def _calibrate(self, minimum: int = 0) -> None:
        gap = self._gaps[-1]
        done = 0
        while done < minimum or self._cal < CAL_SHARE * self._work:
            slice_s = _cal_slice()
            gap.append(slice_s)
            self._cal += slice_s
            self._cal_inside += slice_s
            done += 1

    def finish(self) -> PassTiming:
        ended = _now()
        inside = self._cal_inside
        self._calibrate(minimum=_POOL)
        elapsed = ended - self._started
        slices = [s for gap in self._gaps for s in gap]
        wall_raw = elapsed - inside
        speed = _scale(slices)
        latencies: list[float] = []
        sections: dict[str, float] = {}
        in_ops = 0.0
        for index, (raw, op_sections) in enumerate(self._ops):
            local = self._local_speed(index)
            latencies.append(raw / local)
            in_ops += raw
            for name, seconds in op_sections.items():
                sections[name] = sections.get(name, 0.0) + seconds / local
        wall = sum(latencies) + max(0.0, wall_raw - in_ops) / speed
        return PassTiming(
            wall=wall,
            wall_raw=wall_raw,
            op_latency=latencies,
            sections=sections,
            speed=speed,
            spans=self.spans,
            started=self._started,
            ended=ended,
        )

    def _local_speed(self, index: int) -> float:
        """The scale around op ``index``: from the slices in the gaps on
        both sides, widened until ``_POOL`` are pooled."""
        lo, hi = index, index + 1
        pool = self._gaps[lo] + self._gaps[hi]
        while len(pool) < _POOL and (lo > 0 or hi < len(self._gaps) - 1):
            if lo > 0:
                lo -= 1
                pool = pool + self._gaps[lo]
            if hi < len(self._gaps) - 1:
                hi += 1
                pool = pool + self._gaps[hi]
        return _scale(pool)


class _Op:
    __slots__ = ("_meter", "_op_id", "_start", "_span")

    def __init__(self, meter: Meter, op_id: int) -> None:
        self._meter = meter
        self._op_id = op_id
        self._span = meter.span("op")

    def __enter__(self) -> None:
        meter = self._meter
        meter._op_id = self._op_id
        meter._op_sections = {}
        self._span.__enter__()
        self._start = _now()

    def __exit__(self, *exc: object) -> None:
        raw = _now() - self._start
        self._span.__exit__(*exc)
        meter = self._meter
        meter._ops.append((raw, meter._op_sections))
        meter._op_id = None
        meter._op_sections = {}
        meter._work += raw
        meter._gaps.append([])
        meter._calibrate()


def calibrated(fn, *args: Any) -> tuple[Any, float, float]:
    """``(fn(*args), reference seconds, raw seconds)`` for one call that
    cannot be interleaved with slices (an import, a set-up step)."""
    slices = [_cal_slice() for _ in range(_POOL)]
    start = _now()
    result = fn(*args)
    raw = _now() - start
    slices += [_cal_slice() for _ in range(_POOL)]
    return result, raw / _scale(slices), raw


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def self_times(spans: Iterable[tuple]) -> tuple[dict[str, float], float]:
    """``(self seconds per span name, seconds under root spans)``.

    A span's self time is its duration minus the part its children
    cover; summed over all spans that is exactly the time under the
    root spans, which the caller compares with the pass wall time.
    """
    spans = list(spans)
    child_time: dict[int, float] = {}
    for _id, _name, start, end, parent, _op in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    by_name: dict[str, float] = {}
    roots = 0.0
    for span_id, name, start, end, parent, _op in spans:
        duration = end - start
        by_name[name] = (
            by_name.get(name, 0.0) + duration - child_time.get(span_id, 0.0)
        )
        if parent is None:
            roots += duration
    return by_name, roots


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them (the form the benchmark contract's spread is defined on)."""
    if len(values) < 2:
        return (values[0], values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q3)


def summary(values: Sequence[float], unit: str) -> dict[str, Any]:
    """The printed form of one metric: median, quartiles, sample count."""
    q1, q3 = quartiles(values)
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": list(values),
    }
