"""The paper's loop — deploy, inject, run, judge — on objects and on files.

:class:`CampaignRun` is the one runner of the Fig. 7 workflow: the chaos
campaigns, the Figs. 9-12 grid (:mod:`repro.experiments.cluster`) and
Fig. 3 (:mod:`repro.experiments.fig3`) all deploy, inject, run and
judge through it. :func:`run_campaign` is its file-based shell and the
module-level worker the experiment fabric pickles (``repro chaos run``
and ``repro obs`` both run it). Everything in a digest is
sim-time-derived, so the ``jsonl`` payload is byte-identical at any
worker count — the property ``tests/chaos/test_campaigns.py`` pins.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping, Optional, Sequence

from repro.chaos import invariants
from repro.chaos.campaign import (
    CampaignSpec,
    detection_bound,
    generate_schedule,
)
from repro.chaos.injectors import Injection, apply_injection
from repro.core.deployment import ReplicatedDeployment
from repro.core.strategy import ActivationStrategy
from repro.dsps.metrics import RunMetrics
from repro.dsps.platform import PlatformConfig
from repro.dsps.traces import InputTrace, two_level_trace
from repro.laar.middleware import ExtendedApplication, MiddlewareConfig
from repro.obs.slo import FloorAvailability, attach_slo
from repro.workloads.corpus import load_bundle

__all__ = ["CampaignRun", "run_campaign", "run_campaigns"]


def _drop_leaders(events) -> list[dict[str, Any]]:
    """Per-replica drop counts from the buffered events, worst first."""
    drops = Counter(e.fields["replica"] for e in events.of_type("tuple.drop"))
    ranked = sorted(drops.items(), key=lambda item: (-item[1], item[0]))
    return [{"replica": replica, "drops": count} for replica, count in ranked]


class CampaignRun:
    """One judged run of the paper's loop, in two steps.

    Constructing it is the deploy step: ``strategy``'s
    :class:`ExtendedApplication` with a
    :class:`~repro.obs.slo.FloorAvailability` tap holding it to
    ``reference``'s (default: its own) proven floor, and ``schedule``
    applied. Probes attach to :attr:`platform` before :meth:`run`. The
    detection bound, the SLO tenant and the digest's seed come from the
    two configs (the tenant is the platform seed).
    """

    def __init__(
        self,
        deployment: ReplicatedDeployment,
        strategy: ActivationStrategy,
        traces: Mapping[str, InputTrace],
        schedule: Sequence[Injection] = (),
        *,
        reference: Optional[ActivationStrategy] = None,
        platform_config: Optional[PlatformConfig] = None,
        middleware_config: Optional[MiddlewareConfig] = None,
    ) -> None:
        self.platform_config = platform_config or PlatformConfig()
        self.middleware_config = middleware_config or MiddlewareConfig()
        self.reference = strategy if reference is None else reference
        self.extended = ExtendedApplication(
            deployment,
            strategy,
            traces,
            platform_config=self.platform_config,
            middleware_config=self.middleware_config,
        )
        self.platform = platform = self.extended.platform
        # The FT-Search-proven pessimistic floor is the availability
        # contract, exactly as in the invariant checker — so a clean
        # campaign burns zero budget and fires zero alerts.
        self._slo = attach_slo(
            platform,
            FloorAvailability(
                deployment,
                strategy,
                self.reference,
                self.extended.initial_config,
                command_latency=self.middleware_config.command_latency,
            ),
            tenant=str(self.platform_config.seed),
        )
        self._schedule = [injection.to_dict() for injection in schedule]
        platform.telemetry.emit(
            "chaos.campaign",
            seed=self.platform_config.seed,
            injections=self._schedule,
        )
        for injection in schedule:
            apply_injection(platform, injection, strategy=strategy)

    def run(self, drain: float = 2.0) -> tuple[RunMetrics, dict[str, Any]]:
        """Run the trace plus ``drain`` seconds; return the metrics and
        the digest: the event stream, conservation counters, switch
        timeline, top droppers, sink latency, SLO summary and, as
        ``invariants``, the checker's verdict on the run's own log.

        :meth:`ExtendedApplication.run` closes the platform as the run
        ends, so the digest is built from what a closed platform keeps
        readable, and nothing of the run is left for the cycle collector
        once it is returned. A second call raises
        :class:`~repro.errors.SimulationError`."""
        platform, extended = self.platform, self.extended
        metrics = extended.run(drain=drain)
        horizon = platform.trace_duration + drain
        self._slo.finalize(horizon)
        conservation = platform.conservation()
        events = platform.telemetry.events
        result = invariants.check_campaign(
            events.events(),
            platform.deployment,
            extended.strategy,
            self.reference,
            extended.initial_config,
            command_latency=self.middleware_config.command_latency,
            detection_bound=detection_bound(
                self.platform_config, self.middleware_config
            ),
            horizon=horizon,
            conservation=conservation,
            evicted=events.evicted,
        )
        return metrics, {
            "seed": self.platform_config.seed,
            "strategy": extended.strategy.name,
            "reference": self.reference.name,
            "initial_config": extended.initial_config,
            "horizon": horizon,
            "schedule": self._schedule,
            **events.digest(),
            "slo": self._slo.summary(),
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


def run_campaign(spec: CampaignSpec) -> dict[str, Any]:
    """One campaign from its files (picklable worker): the digest of
    :meth:`CampaignRun.run`, with the bundle path after the seed."""
    if not isinstance(spec, CampaignSpec):
        raise TypeError(f"expected a CampaignSpec, got {type(spec)!r}")

    app = load_bundle(spec.bundle)
    deployment = app.deployment
    trace = two_level_trace(
        app.low_rate, app.high_rate, duration=spec.duration
    )
    _, digest = CampaignRun(
        deployment,
        ActivationStrategy.from_json(deployment, spec.strategy),
        {source: trace for source in deployment.descriptor.graph.sources},
        spec.schedule
        if spec.schedule is not None
        else generate_schedule(spec, deployment, trace),
        reference=None
        if spec.reference_strategy is None
        else ActivationStrategy.from_json(deployment, spec.reference_strategy),
        platform_config=spec.platform_config(),
        middleware_config=spec.middleware_config(),
    ).run()
    return {"seed": digest.pop("seed"), "bundle": spec.bundle, **digest}


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
