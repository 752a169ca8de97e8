"""Capacity planning: pricing the reliability knob.

The provider perspective of Section 3: the fee for running an application
depends on the agreed SLA, and LAAR's key property (Fig. 9 / Fig. 12) is
that execution cost tracks the requested IC guarantee. This example takes
one synthetic 24-PE application from the paper's generator and sweeps the
IC target, printing the resulting cost curve — the table a provider would
use to price SLA tiers. Each search runs under a node budget, so the
table is the same on every host; a row marked "(anytime)" is the best
strategy found within that budget, not a proven optimum.

Run:  python examples/capacity_planning.py
"""

from repro.core import (
    OptimizationProblem,
    SearchOutcome,
    ft_search,
    static_replication,
    strategy_cost,
)
from repro.workloads import generate_application

GIGA = 1.0e9
# Nodes per IC target: about 0.1 s of search each.
NODE_LIMIT = 100_000


def main() -> None:
    app = generate_application(seed=2014)
    deployment = app.deployment
    print(f"application: {app.name}  "
          f"({len(app.descriptor.graph.pes)} PEs, "
          f"Low {app.low_rate:.1f} t/s, High {app.high_rate:.1f} t/s)")

    sr_cost = strategy_cost(static_replication(deployment))
    print(f"static replication (IC 1.0 guarantee impossible here —"
          f" High overloads): cost {sr_cost / GIGA:.2f} Gcyc/s\n")

    print("IC target   outcome   cost (Gcyc/s)   vs SR    achieved IC")
    print("-" * 62)
    for target in (0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8):
        result = ft_search(
            OptimizationProblem(deployment, ic_target=target),
            node_limit=NODE_LIMIT,
        )
        if result.strategy is None:
            print(f"{target:9.1f}   {result.outcome.value:7s}   "
                  "-- no strategy found --")
            continue
        marker = "" if result.outcome is SearchOutcome.OPTIMAL else " (anytime)"
        print(f"{target:9.1f}   {result.outcome.value:7s}   "
              f"{result.best_cost / GIGA:13.2f}   "
              f"{result.best_cost / sr_cost:5.2f}    "
              f"{result.best_ic:.3f}{marker}")


if __name__ == "__main__":
    main()
