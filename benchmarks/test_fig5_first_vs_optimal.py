"""Fig. 5: cost and time ratios between the first solution and the optimum.

Expected shape (paper): the first feasible solution costs only slightly
more than the optimum (positively skewed distribution, mean ~1.057) but is
found much earlier (time ratio mean ~0.37) — the anytime property that
makes sub-optimal solutions acceptable in practice. Time is counted in
nodes expanded, so the ratio is the same on every host.
"""

from __future__ import annotations

import statistics

from repro.experiments.figures import render_fig5
from repro.experiments.stats import BoxStats


def test_fig5_first_vs_optimal(benchmark, study_results, save_figure):
    cost_ratios = study_results.cost_ratios()
    node_ratios = study_results.node_ratios()

    # Benchmark the statistic computation over the study's samples.
    if cost_ratios:
        benchmark(BoxStats.from_values, cost_ratios)
    else:
        benchmark(lambda: None)

    save_figure("fig5_first_vs_optimal", render_fig5(study_results))

    assert cost_ratios, "no instance solved to optimality"
    # First solutions are never cheaper than the optimum...
    assert min(cost_ratios) >= 1.0 - 1e-9
    # ...but are close to it on average (paper: 1.057).
    assert statistics.fmean(cost_ratios) < 1.5
    # And they arrive no later than the optimum.
    assert all(ratio <= 1.0 + 1e-9 for ratio in node_ratios)
    assert statistics.fmean(node_ratios) <= 1.0
