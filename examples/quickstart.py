"""Quickstart: the paper's Sec. 4.1 pipeline, from model to simulation.

Builds the two-PE pipeline of Fig. 1, deploys it replicated on two hosts
(Fig. 2a), computes a LAAR activation strategy with FT-Search for an IC
target of 0.5, and then simulates both static active replication and LAAR
on a Low-High-Low input trace — reproducing the Fig. 3 effect: static
replication saturates during the burst, LAAR keeps up and costs less.

Run:  python examples/quickstart.py
"""

from repro.core import (
    ApplicationDescriptor,
    ApplicationGraph,
    ConfigurationSpace,
    EdgeProfile,
    Host,
    OptimizationProblem,
    ft_search,
    static_replication,
    strategy_cost,
)
from repro.dsps import two_level_trace
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.placement import balanced_placement

GIGA = 1.0e9


def build_application() -> ApplicationDescriptor:
    """Fig. 1: src -> PE1 -> PE2 -> sink, 100 ms/tuple, Low 4 t/s (80 %),
    High 8 t/s (20 %)."""
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
    return ApplicationDescriptor(graph, profiles, space, name="quickstart")


def main() -> None:
    descriptor = build_application()

    # Two hosts of 1e9 cycles/s each: the High configuration with full
    # replication needs 1.6e9 per host - 160 % of what is available.
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    deployment = balanced_placement(descriptor, hosts, replication_factor=2)

    # Off-line phase: FT-Search solves Eq. 9-12 for IC >= 0.5.
    result = ft_search(OptimizationProblem(deployment, ic_target=0.5))
    print(f"FT-Search: {result.outcome.value}, "
          f"cost {result.best_cost / GIGA:.2f} Gcycles/s-period, "
          f"guaranteed IC {result.best_ic:.3f}")
    for pe in descriptor.graph.pes:
        states = [
            f"c{c}:{result.strategy.active_count(pe, c)} active"
            for c in range(2)
        ]
        print(f"  {pe}: {', '.join(states)}")

    # Runtime phase: play a 90 s trace with a 30 s High burst.
    trace = {"src": two_level_trace(4.0, 8.0, duration=90.0)}

    sr = static_replication(deployment)
    static_metrics = ExtendedApplication(
        deployment, sr, trace,
        middleware_config=MiddlewareConfig(dynamic=False),
    ).run()

    laar_metrics = ExtendedApplication(
        deployment, result.strategy, trace
    ).run()

    print("\n              static (SR)      LAAR (L.5)")
    print(f"model cost    {strategy_cost(sr) / GIGA:10.2f}    "
          f"{result.best_cost / GIGA:10.2f}   (Gcycles/s)")
    print(f"CPU seconds   {static_metrics.total_cpu_time:10.1f}    "
          f"{laar_metrics.total_cpu_time:10.1f}")
    print(f"tuples in     {static_metrics.total_input:10d}    "
          f"{laar_metrics.total_input:10d}")
    print(f"tuples out    {static_metrics.total_output:10d}    "
          f"{laar_metrics.total_output:10d}")
    print(f"drops         {static_metrics.logical_dropped:10d}    "
          f"{laar_metrics.logical_dropped:10d}")
    peak = (35.0, 58.0)
    print(f"peak out t/s  {static_metrics.output_rate_in_window(*peak):10.2f}    "
          f"{laar_metrics.output_rate_in_window(*peak):10.2f}   (input 8.0)")
    switches = ", ".join(
        f"t={t:.0f}s->config{c}" for t, c in laar_metrics.config_switches
    )
    print(f"\nLAAR configuration switches: {switches}")


if __name__ == "__main__":
    main()
