"""The Fig. 3 demonstration: the Sec. 4.1 pipeline, static vs LAAR.

Reproduces the paper's motivating measurement: a two-PE pipeline on two
1e9-cycles/s hosts, Low = 4 t/s (p=0.8) and High = 8 t/s (p=0.2). With
static replication the hosts saturate during the High burst and the
output rate falls behind the input; with LAAR (IC target 0.5) replicas
deactivate during the burst and the output follows the input.

The driver returns per-second time series of input rate, output rate and
CPU utilisation — the three curves of Fig. 3 — for both variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.runner import CampaignRun
from repro.core.application import ApplicationGraph
from repro.core.configurations import ConfigurationSpace
from repro.core.deployment import Host
from repro.core.descriptor import ApplicationDescriptor, EdgeProfile
from repro.core.baselines import static_replication
from repro.core.optimizer import OptimizationProblem, ft_search
from repro.core.strategy import ActivationStrategy
from repro.dsps.monitoring import CpuSampler
from repro.dsps.traces import two_level_trace
from repro.errors import ExperimentError
from repro.laar.middleware import MiddlewareConfig
from repro.placement import balanced_placement

__all__ = ["Fig3Series", "Fig3Data", "build_pipeline_application", "run_fig3"]

GIGA = 1.0e9
#: FT-Search's budget (it proves the optimum in 8 nodes): no wall clock.
NODE_LIMIT = 10_000


@dataclass(frozen=True)
class Fig3Series:
    """Per-second curves for one variant (one panel of Fig. 3)."""

    variant: str
    seconds: tuple[int, ...]
    input_rate: tuple[float, ...]
    output_rate: tuple[float, ...]
    cpu_utilization: tuple[float, ...]  # fraction of total cluster CPU
    mean_latency: tuple[float, ...]  # per-second end-to-end latency (s)
    config_switches: tuple[tuple[float, int], ...]


@dataclass(frozen=True)
class Fig3Data:
    static: Fig3Series
    laar: Fig3Series


def build_pipeline_application():
    """The Sec. 4.1 application deployed as in Fig. 2a."""
    graph = ApplicationGraph.build(
        sources=["src"],
        pes=["pe1", "pe2"],
        sinks=["sink"],
        edges=[("src", "pe1"), ("pe1", "pe2"), ("pe2", "sink")],
    )
    space = ConfigurationSpace.two_level("src", 4.0, 8.0, 0.8)
    profiles = {
        ("src", "pe1"): EdgeProfile(selectivity=1.0, cpu_cost=0.1 * GIGA),
        ("pe1", "pe2"): EdgeProfile(selectivity=1.0, cpu_cost=0.1 * GIGA),
    }
    descriptor = ApplicationDescriptor(graph, profiles, space, "fig3-pipeline")
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    deployment = balanced_placement(descriptor, hosts, 2)
    return descriptor, deployment


def _run_variant(
    deployment, strategy: ActivationStrategy, duration: float, dynamic: bool
) -> Fig3Series:
    trace = two_level_trace(4.0, 8.0, duration=duration, high_fraction=1 / 3)
    run = CampaignRun(
        deployment,
        strategy,
        {"src": trace},
        middleware_config=MiddlewareConfig(dynamic=dynamic),
    )
    sampler = CpuSampler(run.platform, interval=1.0)
    metrics, _ = run.run(drain=0.0)
    seconds = tuple(range(int(duration)))
    return Fig3Series(
        variant=strategy.name,
        seconds=seconds,
        input_rate=tuple(
            float(metrics.source_series["src"].rate_at(s)) for s in seconds
        ),
        output_rate=tuple(
            float(metrics.sink_series["sink"].rate_at(s)) for s in seconds
        ),
        cpu_utilization=tuple(sampler.utilization[: len(seconds)]),
        mean_latency=tuple(
            metrics.mean_latency_in_window(s, s + 1) for s in seconds
        ),
        config_switches=tuple(metrics.config_switches),
    )


def run_fig3(duration: float = 90.0) -> Fig3Data:
    """Run both Fig. 3 panels and return their time series."""
    _, deployment = build_pipeline_application()
    result = ft_search(
        OptimizationProblem(deployment, ic_target=0.5),
        node_limit=NODE_LIMIT,
    )
    if result.strategy is None:
        raise ExperimentError("FT-Search failed on the Fig. 3 pipeline")
    static_series = _run_variant(
        deployment, static_replication(deployment), duration, dynamic=False
    )
    laar_series = _run_variant(
        deployment, result.strategy.with_name("LAAR"), duration, dynamic=True
    )
    return Fig3Data(static=static_series, laar=laar_series)
