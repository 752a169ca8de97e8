"""Unified observability layer for the LAAR reproduction.

``repro.obs`` is the cross-cutting telemetry subsystem the paper's
evaluation methodology implies (Sec. 5.2 — "periodically query Streams
about the current status of all the PEs and log this information"):

* :mod:`repro.obs.events` — a structured, sim-time-stamped event log
  with bounded ring buffering and canonical JSONL export;
* :mod:`repro.obs.spans` — sim-time span tracing for failover and
  configuration-switch windows;
* :mod:`repro.obs.telemetry` — the per-run facade bundling the above,
  plus sampled per-tuple lifecycle tracing;
* :mod:`repro.obs.progress` — periodic FT-Search progress snapshots;
* :mod:`repro.obs.validate` — the JSONL event-schema validator
  (``python -m repro.obs.validate``);
* :mod:`repro.obs.report` — the report renderer behind ``repro obs``
  (one chaos campaign per failure mode of the paper);
* :mod:`repro.obs.sketch` — the deterministic log-bucket latency
  sketch and the shared nearest-rank percentile definition;
* :mod:`repro.obs.replay` — the one event-sourced deployment state and
  the one proven IC floor, shared by the SLO trackers and the chaos
  invariant checker;
* :mod:`repro.obs.slo` — the streaming SLO engine: windowed rollups,
  error budgets, multi-window burn-rate alerts (every tenant of
  ``repro fleet --dataplane``);
* :mod:`repro.obs.diff` — sim-time-aligned run diffs with per-phase
  delta attribution (``repro obs diff``).

All telemetry is stamped in simulated time, so event streams are
bit-identical across runs and worker counts for fixed seeds.
"""

from repro.obs.diff import diff_runs, render_diff
from repro.obs.events import EVENT_SCHEMA, Event, EventLog, event_to_json
from repro.obs.progress import ProgressSnapshot, SearchProgress
from repro.obs.report import render_report
from repro.obs.sketch import LogHistogram, nearest_rank_index
from repro.obs.slo import (
    AvailabilityTracker,
    CoverageAvailability,
    FloorAvailability,
    SloConfig,
    SloEngine,
    attach_slo,
)
from repro.obs.spans import Span, SpanTracer
from repro.obs.telemetry import Telemetry, TupleTracer

__all__ = [
    "render_report",
    "AvailabilityTracker",
    "CoverageAvailability",
    "FloorAvailability",
    "SloConfig",
    "SloEngine",
    "attach_slo",
    "LogHistogram",
    "nearest_rank_index",
    "diff_runs",
    "render_diff",
    "EVENT_SCHEMA",
    "Event",
    "EventLog",
    "event_to_json",
    "ProgressSnapshot",
    "SearchProgress",
    "Span",
    "SpanTracer",
    "Telemetry",
    "TupleTracer",
]
