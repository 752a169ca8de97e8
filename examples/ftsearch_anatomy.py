"""FT-Search anatomy: watching the optimizer work.

Dissects one FT-Search run on a generated application: the search-space
size, how each pruning rule contributed (the Fig. 6 statistics for a
single instance), the anytime trajectory (first solution vs optimum,
Fig. 5), and a side-by-side of the resulting strategy against the greedy
baseline.

Run:  python examples/ftsearch_anatomy.py
"""

from repro.core import (
    OptimizationProblem,
    PruneRule,
    ft_search,
    greedy_deactivation,
    internal_completeness,
    strategy_cost,
)
from repro.workloads import ClusterParams, GeneratorParams, generate_application

GIGA = 1.0e9


def main() -> None:
    # A mid-sized instance the search can usually close optimally.
    app = generate_application(
        seed=7,
        params=GeneratorParams(n_pes=10),
        cluster=ClusterParams(n_hosts=3, cores_per_host=8),
    )
    deployment = app.deployment
    n_pes = len(app.descriptor.graph.pes)
    n_configs = len(app.descriptor.configuration_space)
    print(f"instance: {n_pes} PEs x {n_configs} configurations")
    print(f"search space: 3^{n_pes * n_configs} ="
          f" {3 ** (n_pes * n_configs):.3e} activation strategies\n")

    problem = OptimizationProblem(deployment, ic_target=0.5)
    result = ft_search(problem)

    stats = result.stats
    print(f"outcome: {result.outcome.value}"
          f" after {stats.nodes_expanded} nodes,"
          f" {stats.values_tried} values tried,"
          f" {stats.solutions_found} solutions found")
    print(f"optimal cost {result.best_cost / GIGA:.3f} Gcyc/s,"
          f" IC {result.best_ic:.3f}\n")

    if result.first_solution_cost is not None:
        print("anytime behaviour (Fig. 5):")
        print(f"  first solution cost: "
              f"{result.first_solution_cost / GIGA:.3f} Gcyc/s"
              f" ({result.first_solution_cost / result.best_cost:.3f}x"
              " the optimum)")
        print(f"  first solution at node {result.first_solution_nodes}"
              f" / optimum at node {result.best_solution_nodes}\n")

    print("pruning effectiveness (Fig. 6):")
    print("  rule   prunes   share   mean height")
    for rule in PruneRule:
        print(f"  {rule.value:5s}  {stats.prune_counts[rule]:7d}"
              f"  {stats.prune_share(rule):6.1%}"
              f"  {stats.mean_prune_height(rule):8.2f}")

    greedy = greedy_deactivation(deployment)
    print("\nversus the greedy baseline (GRD):")
    print(f"  GRD cost {strategy_cost(greedy) / GIGA:.3f} Gcyc/s,"
          f" pessimistic IC {internal_completeness(greedy):.3f}"
          " (no guarantee by construction)")
    print(f"  L.5 cost {result.best_cost / GIGA:.3f} Gcyc/s,"
          f" guaranteed IC {result.best_ic:.3f}")


if __name__ == "__main__":
    main()
