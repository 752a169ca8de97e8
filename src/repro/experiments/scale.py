"""Experiment scale knobs (laptop defaults, env-var overridable).

The paper's evaluation ran 100 applications on 5-minute traces on a
60-core cluster and 600 FT-Search instances with a 10-minute limit on a
6-core Xeon. This reproduction defaults to a scale that finishes in
minutes on one laptop core; every knob can be raised towards the paper's
numbers through environment variables:

===================  =======================================
REPRO_CORPUS_SIZE    applications in the cluster experiments
REPRO_CRASH_CORPUS   applications re-run with a host crash
REPRO_TRACE_SECONDS  input trace length
REPRO_STUDY_SIZE     instances in the FT-Search study
REPRO_JOBS           worker processes for the grids (1 = serial)
===================  =======================================

``REPRO_JOBS`` is read by :mod:`repro.experiments.parallel` (not here:
it is a compute knob, not part of a scale value).

FT-Search's budgets are not scale knobs: they count expanded nodes, not
seconds, so a figure is the same on every host and worker count. They
are constants beside their readers,
:data:`repro.experiments.variants.NODE_LIMIT` (the grid) and
:data:`repro.experiments.ftsearch_study.NODE_LIMIT` (the study).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.dsps.traces import InputTrace, two_level_trace
from repro.errors import ExperimentError
from repro.laar.middleware import PAPER_MIDDLEWARE

__all__ = ["ExperimentScale", "StudyScale", "peak_window"]


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ExperimentError(f"{name} must be an integer, got {value!r}")


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        raise ExperimentError(f"{name} must be a number, got {value!r}")


def _check_ic_targets(targets: tuple[float, ...]) -> None:
    if not targets:
        raise ExperimentError("ic_targets must name at least one target")
    for target in targets:
        if not 0.0 <= target <= 1.0:
            raise ExperimentError(
                f"ic_targets must lie in [0, 1], got {target!r}"
            )


def _check_range(name: str, bounds: tuple[int, int], least: int) -> None:
    low, high = bounds
    if not least <= low <= high:
        raise ExperimentError(
            f"{name} must be (low, high) with {least} <= low <= high,"
            f" got {bounds!r}"
        )


def peak_window(trace: InputTrace) -> tuple[float, float]:
    """Fig. 10's measurement window: the High burst minus two monitor
    periods (the up-switch lands) and its last second; refused when it
    is under a second, since output is counted in one-second buckets."""
    settle = 2.0 * PAPER_MIDDLEWARE.monitor_interval
    high_start, high_end = trace.segment_windows("High")[0]
    burst = high_end - high_start  # a fixed share of the trace
    if burst < settle + 2.0:
        raise ExperimentError(
            "trace_seconds (REPRO_TRACE_SECONDS) must be >= "
            f"{trace.duration * (settle + 2.0) / burst:g}: a shorter trace"
            " leaves Fig. 10 no whole second of the High burst to measure"
        )
    return high_start + settle, high_end - 1.0


@dataclass(frozen=True)
class ExperimentScale:
    """Scale of the cluster experiments (Figs. 9-12)."""

    corpus_size: int = 10
    crash_corpus_size: int = 5
    trace_seconds: float = 60.0
    ic_targets: tuple[float, ...] = (0.5, 0.6, 0.7)

    def __post_init__(self) -> None:
        if self.corpus_size < 1:
            raise ExperimentError("corpus_size must be >= 1")
        if not 0 <= self.crash_corpus_size <= self.corpus_size:
            raise ExperimentError(
                "crash_corpus_size must be >= 0 and cannot exceed"
                " corpus_size"
            )
        if not (math.isfinite(self.trace_seconds) and self.trace_seconds > 0):
            raise ExperimentError(
                f"trace_seconds must be finite and > 0,"
                f" got {self.trace_seconds!r}"
            )
        peak_window(two_level_trace(1.0, 1.0, self.trace_seconds))
        _check_ic_targets(self.ic_targets)

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        return cls(
            corpus_size=_env_int("REPRO_CORPUS_SIZE", cls.corpus_size),
            crash_corpus_size=min(
                _env_int("REPRO_CRASH_CORPUS", cls.crash_corpus_size),
                _env_int("REPRO_CORPUS_SIZE", cls.corpus_size),
            ),
            trace_seconds=_env_float(
                "REPRO_TRACE_SECONDS", cls.trace_seconds
            ),
        )


@dataclass(frozen=True)
class StudyScale:
    """Scale of the FT-Search study (Figs. 4-6)."""

    instances: int = 36
    ic_targets: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9)
    host_range: tuple[int, int] = (2, 4)
    pes_per_host_range: tuple[int, int] = (2, 6)

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ExperimentError("instances must be >= 1")
        _check_ic_targets(self.ic_targets)
        # Two-fold replication needs two hosts.
        _check_range("host_range", self.host_range, 2)
        _check_range("pes_per_host_range", self.pes_per_host_range, 1)

    @classmethod
    def from_env(cls) -> "StudyScale":
        return cls(instances=_env_int("REPRO_STUDY_SIZE", cls.instances))
