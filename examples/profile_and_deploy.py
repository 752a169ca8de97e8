"""Profile-then-deploy: the full provider workflow of Section 3.

A customer hands the provider an application *without* a descriptor —
just the dataflow graph, the operators, and an example input trace. The
provider then (paper, Sec. 3):

1. runs a *preliminary profiling step* to measure per-edge selectivities
   and per-tuple CPU costs;
2. infers the source rate distribution from the example trace via
   binning [12];
3. feeds the assembled descriptor to FT-Search and deploys the
   application with the resulting LAAR strategy.

This example executes all three steps against the simulator and verifies
the strategy computed from the *inferred* descriptor performs like one
computed from ground truth.

Run:  python examples/profile_and_deploy.py
"""

import random

from repro.core import (
    ApplicationDescriptor,
    ApplicationGraph,
    ConfigurationSpace,
    EdgeProfile,
    Host,
    OptimizationProblem,
    ft_search,
)
from repro.dsps import InputTrace, StreamPlatform, TraceSegment, two_level_trace
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.placement import balanced_placement
from repro.workloads import infer_source_rates, profile_application

GIGA = 1.0e9


def customer_application():
    """What the customer provides: graph + (hidden) true behaviour."""
    graph = ApplicationGraph.build(
        sources=["events"],
        pes=["parse", "enrich", "window", "detect"],
        sinks=["alerts"],
        edges=[
            ("events", "parse"),
            ("parse", "enrich"),
            ("enrich", "window"),
            ("enrich", "detect"),
            ("window", "detect"),
            ("detect", "alerts"),
        ],
    )
    true_profiles = {
        ("events", "parse"): EdgeProfile(1.0, 0.03 * GIGA),
        ("parse", "enrich"): EdgeProfile(1.0, 0.05 * GIGA),
        ("enrich", "window"): EdgeProfile(0.6, 0.04 * GIGA),
        ("enrich", "detect"): EdgeProfile(0.9, 0.02 * GIGA),
        ("window", "detect"): EdgeProfile(1.2, 0.03 * GIGA),
    }
    return graph, true_profiles


def main() -> None:
    graph, true_profiles = customer_application()
    hosts = [
        Host("n0", cores=4, cycles_per_core=0.3 * GIGA),
        Host("n1", cores=4, cycles_per_core=0.3 * GIGA),
        Host("n2", cores=4, cycles_per_core=0.3 * GIGA),
    ]

    # The customer's example trace: mostly calm, bursty at times.
    example_trace = two_level_trace(3.0, 6.5, duration=120.0,
                                    high_fraction=1 / 3)
    arrival_times = list(
        example_trace.arrival_times(random.Random(5), jitter=0.3)
    )

    # Step 1+2: a profiling run on a staging deployment. The provider
    # does not know selectivities/costs yet, so it stages with the true
    # (hidden) behaviour — in the simulator that means building the
    # platform from the true profiles and only *measuring* them.
    print("step 1: profiling run on staging deployment...")
    staging_space = ConfigurationSpace.two_level("events", 3.0, 6.5, 2 / 3)
    hidden = ApplicationDescriptor(
        graph, true_profiles, staging_space, name="hidden-truth"
    )
    staging = balanced_placement(hidden, hosts, 2)
    platform = StreamPlatform(
        staging, {"events": InputTrace([TraceSegment(3.0, 90.0, "Low")])}
    )
    metrics = platform.run()

    inferred_rates = infer_source_rates(
        arrival_times, duration=example_trace.duration, window=2.0, bins=2
    )
    print(f"   inferred source rates: "
          + ", ".join(f"{r:.2f} t/s (p={p:.2f})" for r, p in inferred_rates))

    descriptor = profile_application(
        graph,
        metrics,
        source_rates={"events": inferred_rates},
        cycles_per_core=0.3 * GIGA,
        name="profiled",
    )
    print("   measured selectivities:")
    for pe in graph.pes:
        for edge in graph.pe_input_edges(pe):
            truth = true_profiles[(edge.tail, pe)].selectivity
            measured = descriptor.selectivity(edge.tail, pe)
            print(f"     {edge.tail:>7s} -> {pe:<7s}"
                  f" true {truth:.2f}  measured {measured:.2f}")

    # Step 3: optimize on the inferred descriptor and deploy.
    print("\nstep 2: FT-Search on the inferred descriptor (IC >= 0.55)...")
    deployment = balanced_placement(descriptor, hosts, 2)
    result = ft_search(OptimizationProblem(deployment, ic_target=0.55))
    print(f"   {result.outcome.value}: cost {result.best_cost / GIGA:.2f}"
          f" Gcyc/s, guaranteed IC {result.best_ic:.3f}")

    print("\nstep 3: production run with the profiled strategy...")
    production = ExtendedApplication(
        deployment,
        result.strategy,
        {"events": example_trace},
        middleware_config=MiddlewareConfig(
            monitor_interval=2.0, rate_tolerance=0.25, down_confirmation=2
        ),
    )
    run = production.run()
    print(f"   input {run.total_input}, output {run.total_output},"
          f" drops {run.logical_dropped},"
          f" switches {len(run.config_switches)}")
    ratio = run.total_output / max(1, run.total_input)
    print(f"   output/input ratio: {ratio:.3f}"
          " (greater than 1: the detect stage amplifies via selectivity)")


if __name__ == "__main__":
    main()
