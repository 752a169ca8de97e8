"""Executing chaos campaigns and distilling them into checkable digests.

:func:`run_campaign` is the module-level worker the experiment fabric
pickles (``repro chaos run`` and ``repro obs`` both run it): it loads
the campaign's bundle and strategies, expands (or reuses) the injection
schedule, runs the full LAAR stack with telemetry on, and returns a
plain dict carrying the canonical event stream, the conservation
counters, the switch timeline, top droppers, sink latency, and the
verdict of the in-process invariant replay. Everything in the digest is
sim-time-derived, so the ``jsonl`` payload is byte-identical at any
worker count — the property ``tests/chaos/test_campaigns.py`` pins.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:
    from repro.chaos.campaign import CampaignSpec

__all__ = ["run_campaign", "run_campaigns"]


def _drop_leaders(events) -> list[dict[str, Any]]:
    """Per-replica drop counts from the buffered events, worst first."""
    drops = Counter(e.fields["replica"] for e in events.of_type("tuple.drop"))
    ranked = sorted(drops.items(), key=lambda item: (-item[1], item[0]))
    return [{"replica": replica, "drops": count} for replica, count in ranked]


def run_campaign(spec: CampaignSpec) -> dict[str, Any]:
    """Run one campaign and return its digest (picklable worker).

    The digest's ``invariants`` entry is the
    :class:`~repro.chaos.invariants.CheckResult` of replaying the run's
    own event log, flattened to plain containers.
    """
    from repro.chaos.campaign import CampaignSpec, generate_schedule
    from repro.chaos.injectors import apply_injection
    from repro.chaos.invariants import check_campaign
    from repro.core.strategy import ActivationStrategy
    from repro.dsps import PlatformConfig
    from repro.laar import MiddlewareConfig, deploy_bundle
    from repro.obs.slo import FloorAvailability, attach_slo

    if not isinstance(spec, CampaignSpec):
        raise TypeError(f"expected a CampaignSpec, got {type(spec)!r}")

    extended, trace = deploy_bundle(
        spec.bundle,
        spec.strategy,
        spec.duration,
        platform_config=PlatformConfig(
            failover_delay=spec.failover_delay,
            queue_seconds=spec.queue_seconds,
            arrival_jitter=spec.jitter,
            heartbeat_interval=spec.heartbeat_interval,
            seed=spec.seed,
            event_buffer=spec.event_buffer,
            tuple_trace_every=spec.tuple_trace_every,
            batching=spec.batching,
        ),
        middleware_config=MiddlewareConfig(
            monitor_interval=spec.monitor_interval,
            command_latency=spec.command_latency,
            rate_tolerance=spec.rate_tolerance,
            down_confirmation=spec.down_confirmation,
        ),
    )
    platform = extended.platform
    deployment = platform.deployment
    strategy = extended.strategy
    initial_config = extended.initial_config
    reference = (
        ActivationStrategy.from_json(deployment, spec.reference_strategy)
        if spec.reference_strategy is not None
        else strategy
    )
    schedule = (
        spec.schedule
        if spec.schedule is not None
        else generate_schedule(spec, deployment, trace)
    )
    # The FT-Search-proven pessimistic floor is the availability
    # contract, exactly as in the invariant checker — so a clean
    # campaign burns zero budget and fires zero alerts.
    slo_engine = attach_slo(
        platform,
        FloorAvailability(
            deployment,
            strategy,
            reference,
            initial_config,
            command_latency=spec.command_latency,
        ),
        tenant=str(spec.seed),
    )
    platform.telemetry.emit(
        "chaos.campaign",
        seed=spec.seed,
        injections=[injection.to_dict() for injection in schedule],
    )
    for injection in schedule:
        apply_injection(platform, injection, strategy=strategy)

    drain = 2.0
    metrics = extended.run(drain=drain)
    horizon = spec.duration + drain
    slo_engine.finalize(horizon)

    conservation = platform.conservation()

    events = platform.telemetry.events
    result = check_campaign(
        events.events(),
        deployment,
        strategy,
        reference,
        initial_config,
        command_latency=spec.command_latency,
        detection_bound=spec.detection_bound,
        horizon=horizon,
        conservation=conservation,
        evicted=events.evicted,
    )

    return {
        "seed": spec.seed,
        "bundle": spec.bundle,
        "strategy": strategy.name,
        "reference": reference.name,
        "initial_config": initial_config,
        "horizon": horizon,
        "schedule": [injection.to_dict() for injection in schedule],
        **events.digest(),
        "slo": slo_engine.summary(),
        "switches": [
            {
                "t": event.time,
                "from": event.fields["from"],
                "to": event.fields["to"],
                "commands": event.fields["commands"],
            }
            for event in events.of_type("config.switch")
        ],
        "spans": platform.telemetry.spans.to_list(),
        "top_droppers": _drop_leaders(events),
        "conservation": conservation,
        "metrics": {
            "input": metrics.total_input,
            "output": metrics.total_output,
            "processed": metrics.tuples_processed,
            "dropped": metrics.logical_dropped,
            "lost": metrics.total_lost,
            "cpu_seconds": round(metrics.total_cpu_time, 3),
            "config_switches": len(metrics.config_switches),
            "sink_latency": {
                sink: recorder.summary()
                for sink, recorder in sorted(metrics.sink_latency.items())
            },
        },
        "invariants": {
            "ok": result.ok,
            "violations": [
                {
                    "invariant": violation.invariant,
                    "time": violation.time,
                    "detail": violation.detail,
                }
                for violation in result.violations
            ],
            "stats": result.stats,
        },
    }


def run_campaigns(
    specs: Sequence,
    jobs: Optional[int] = None,
    profile=None,
) -> list[dict[str, Any]]:
    """Run a batch of campaigns over the process-parallel fabric.

    Digest order follows spec order and every digest is bit-identical
    for any ``jobs`` value (all telemetry is simulated-time-stamped).
    """
    from repro.driver import fan_out

    return fan_out(run_campaign, specs, jobs=jobs, profile=profile)
