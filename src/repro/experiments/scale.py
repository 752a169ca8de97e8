"""Experiment scale knobs (laptop defaults, env-var overridable).

The paper's evaluation ran 100 applications on 5-minute traces on a
60-core cluster and 600 FT-Search instances with a 10-minute limit on a
6-core Xeon. This reproduction defaults to a scale that finishes in
minutes on one laptop core; every knob can be raised towards the paper's
numbers through environment variables:

======================  =======================================
REPRO_CORPUS_SIZE       applications in the cluster experiments
REPRO_CRASH_CORPUS      applications re-run with a host crash
REPRO_TRACE_SECONDS     input trace length
REPRO_FT_TIME_LIMIT     FT-Search budget per (app, IC target)
REPRO_STUDY_SIZE        instances in the FT-Search study
REPRO_STUDY_TIME_LIMIT  FT-Search budget per study instance
REPRO_JOBS              worker processes for the grids (1 = serial)
======================  =======================================

``REPRO_JOBS`` is read by :mod:`repro.experiments.parallel` (not here:
it is a compute knob, not part of a scale value).
"""

from __future__ import annotations

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
    ft_time_limit: float = 3.0
    ic_targets: tuple[float, ...] = (0.5, 0.6, 0.7)

    def __post_init__(self) -> None:
        if self.corpus_size < 1:
            raise ExperimentError("corpus_size must be >= 1")
        if self.crash_corpus_size > self.corpus_size:
            raise ExperimentError(
                "crash_corpus_size cannot exceed corpus_size"
            )
        if self.trace_seconds <= 0:
            raise ExperimentError("trace_seconds must be > 0")
        peak_window(two_level_trace(1.0, 1.0, self.trace_seconds))
        if not self.ic_targets:
            raise ExperimentError("need at least one IC target")

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
            ft_time_limit=_env_float(
                "REPRO_FT_TIME_LIMIT", cls.ft_time_limit
            ),
        )


@dataclass(frozen=True)
class StudyScale:
    """Scale of the FT-Search study (Figs. 4-6)."""

    instances: int = 36
    ic_targets: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9)
    time_limit: float = 1.5
    host_range: tuple[int, int] = (2, 4)
    pes_per_host_range: tuple[int, int] = (2, 6)

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ExperimentError("instances must be >= 1")
        if self.host_range[0] < 2:
            raise ExperimentError(
                "at least two hosts are needed for two-fold replication"
            )

    @classmethod
    def from_env(cls) -> "StudyScale":
        return cls(
            instances=_env_int("REPRO_STUDY_SIZE", cls.instances),
            time_limit=_env_float(
                "REPRO_STUDY_TIME_LIMIT", cls.time_limit
            ),
        )
