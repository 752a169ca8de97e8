"""Fig. 9: best-case CPU time (top) and tuples dropped (bottom) vs NR.

Expected shape (paper): SR is the most expensive variant (+61-90 % over
NR), GRD second; the three LAAR variants are the cheapest dynamic options
and their cost is monotone in the requested IC (the paper's headline
cost/reliability knob). SR drops an order of magnitude more tuples than
any dynamic variant.
"""

from __future__ import annotations

from repro.experiments.cluster import BASE_SEED, FailureMode, run_variant
from repro.experiments.figures import fig9_cpu, fig9_drops, render_fig9


def test_fig9_bestcase(benchmark, cluster_results, save_figure):
    # Benchmark one best-case simulated run (app + L.5 variant), on the
    # variant set the grid already searched for its first application.
    scale = cluster_results.scale
    variants = cluster_results.variant_sets[f"app-{BASE_SEED}"]
    benchmark.pedantic(
        lambda: run_variant(variants, "L.5", FailureMode.BEST, scale, 0),
        rounds=1,
        iterations=1,
    )

    save_figure("fig9_bestcase", render_fig9(cluster_results))

    cpu = {v: s.mean for v, s in fig9_cpu(cluster_results).items()}
    drops = {v: s.mean for v, s in fig9_drops(cluster_results).items()}

    # Cost ordering: NR < L.5 < L.6 < L.7 < SR, and SR above GRD.
    assert cpu["NR"] == 1.0
    assert cpu["NR"] < cpu["L.5"] < cpu["L.6"] < cpu["L.7"] < cpu["SR"]
    assert cpu["GRD"] < cpu["SR"]
    # SR overhead over NR in the paper's 61-90 % band (loosely checked).
    assert 1.4 < cpu["SR"] < 2.0

    # Drops: static replication dwarfs every dynamic variant.
    dynamic_worst = max(drops[v] for v in ("GRD", "L.5", "L.6", "L.7"))
    assert drops["SR"] > 5.0 * max(1.0, dynamic_worst)
