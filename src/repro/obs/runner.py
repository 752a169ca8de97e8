"""Observed simulation runs: the data source behind ``repro obs``.

One :class:`ObservedRunSpec` describes a single LAAR simulation (bundle,
strategy, failure mode, duration, seed); :func:`run_observed` executes it
with telemetry on and distils the run into a plain JSON-friendly dict —
the canonical event stream (JSONL), per-type counts, the configuration
switch timeline, failover spans, drop leaders and latency summaries.

Specs and results are picklable scalars/containers only, so
:func:`run_observed_modes` can fan a set of failure modes out over the
process-parallel experiment fabric (:mod:`repro.experiments.parallel`)
and still produce bit-identical event streams at any worker count: all
telemetry is stamped in simulated time, never wall time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.dsps.traces import InputTrace
    from repro.laar import ExtendedApplication

__all__ = [
    "FAILURE_MODES",
    "ObservedRunSpec",
    "inject_failure_mode",
    "run_observed",
    "run_observed_modes",
]

#: Failure modes an observed run understands, in report order: a clean
#: run, the pessimistic per-configuration worst case (Sec. 4.1), and a
#: planned host crash during a High-rate window (Sec. 5.2).
FAILURE_MODES = ("none", "worst", "crash")


@dataclass(frozen=True)
class ObservedRunSpec:
    """One observed simulation run (paths and scalars only: picklable)."""

    bundle: str
    strategy: str
    mode: str = "none"
    duration: float = 60.0
    seed: int = 0
    jitter: float = 0.35
    tuple_trace_every: int = 0
    queue_seconds: float = 2.0
    batching: bool = False

    def __post_init__(self) -> None:
        if self.mode not in FAILURE_MODES:
            raise ReproError(
                f"unknown failure mode {self.mode!r};"
                f" expected one of {FAILURE_MODES}"
            )
        if self.duration <= 0:
            raise ReproError("duration must be > 0")


def _drop_leaders(events) -> list[dict[str, Any]]:
    """Per-replica drop counts from the buffered events, worst first."""
    drops: dict[str, int] = {}
    for event in events.of_type("tuple.drop"):
        replica = event.fields["replica"]
        drops[replica] = drops.get(replica, 0) + 1
    ranked = sorted(drops.items(), key=lambda item: (-item[1], item[0]))
    return [{"replica": replica, "drops": count} for replica, count in ranked]


def inject_failure_mode(
    extended: ExtendedApplication, trace: InputTrace, mode: str, seed: int
) -> dict[str, Any]:
    """Inject one of :data:`FAILURE_MODES`; returns what was injected."""
    from repro.dsps import (
        inject_host_crash,
        inject_pessimistic_failures,
        plan_host_crash,
    )

    if mode == "worst":
        victims = inject_pessimistic_failures(
            extended.platform, extended.strategy
        )
        return {"crashed_replicas": len(victims)}
    if mode == "crash":
        plan = plan_host_crash(
            extended.platform,
            trace.segment_windows("High"),
            random.Random(seed),
        )
        inject_host_crash(extended.platform, plan)
        return {
            "host": plan.host,
            "crash_time": plan.crash_time,
            "downtime": plan.downtime,
        }
    return {}


def run_observed(spec: ObservedRunSpec) -> dict[str, Any]:
    """Run one observed simulation and return its telemetry digest.

    Module-level so the experiment fabric can pickle it as a pool worker.
    """
    from repro.dsps import PlatformConfig
    from repro.laar.middleware import PAPER_MIDDLEWARE, deploy_bundle
    from repro.obs.slo import attach_floor_slo

    extended, trace = deploy_bundle(
        spec.bundle,
        spec.strategy,
        spec.duration,
        platform_config=PlatformConfig(
            arrival_jitter=spec.jitter,
            seed=spec.seed,
            queue_seconds=spec.queue_seconds,
            tuple_trace_every=spec.tuple_trace_every,
            batching=spec.batching,
        ),
        middleware_config=PAPER_MIDDLEWARE,
    )
    # The floor is the strategy's own: even the "worst"/"crash" modes
    # stay dominated by the pessimistic model, so only a genuine bound
    # breach burns budget.
    slo_engine = attach_floor_slo(extended, tenant=spec.mode)
    injected = inject_failure_mode(extended, trace, spec.mode, spec.seed)

    metrics = extended.run()
    slo_engine.finalize(spec.duration + 2.0)

    telemetry = extended.platform.telemetry
    events = telemetry.events
    switches = [
        {
            "t": event.time,
            "from": event.fields["from"],
            "to": event.fields["to"],
            "commands": event.fields["commands"],
        }
        for event in events.of_type("config.switch")
    ]
    return {
        "mode": spec.mode,
        "injected": injected,
        **events.digest(),
        "slo": slo_engine.summary(),
        "switches": switches,
        "spans": telemetry.spans.to_list(),
        "top_droppers": _drop_leaders(events),
        "metrics": {
            "input": metrics.total_input,
            "output": metrics.total_output,
            "processed": metrics.tuples_processed,
            "dropped": metrics.logical_dropped,
            "cpu_seconds": round(metrics.total_cpu_time, 3),
            "config_switches": len(metrics.config_switches),
            "sink_latency": {
                sink: recorder.summary()
                for sink, recorder in sorted(metrics.sink_latency.items())
            },
        },
    }


def run_observed_modes(
    spec: ObservedRunSpec,
    modes: Sequence[str] = FAILURE_MODES,
    jobs: Optional[int] = None,
    profile=None,
) -> list[dict[str, Any]]:
    """Run ``spec`` once per failure mode, in ``modes`` order.

    Fans out over the experiment fabric; pass a
    :class:`~repro.experiments.parallel.FabricProfile` to collect
    per-task timing and worker utilization. Results are bit-identical
    for any ``jobs`` value (telemetry is sim-time-stamped only).
    """
    from repro.driver import fan_out

    specs = [replace(spec, mode=mode) for mode in modes]
    return fan_out(run_observed, specs, jobs=jobs, profile=profile)
