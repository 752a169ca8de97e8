"""Fig. 4: FT-Search outcome classes (BST/SOL/NUL/TMO) vs IC constraint.

Expected shape (paper): as the IC constraint grows from 0.5 to 0.9, the
number of provably infeasible instances (NUL) grows, while instances that
terminate with a solution become fewer.
"""

from __future__ import annotations

from repro.core.optimizer import (
    FTSearchConfig,
    OptimizationProblem,
    ReferenceFTSearch,
    SearchOutcome,
)
from repro.experiments.figures import outcome_share, render_fig4
from repro.experiments.ftsearch_study import (
    BASE_SEED,
    NODE_LIMIT,
    _study_instance,
)


def test_fig4_outcomes(benchmark, study_results, save_figure):
    # Benchmark one representative study-instance search (the study
    # runs on the reference oracle, see ftsearch_study).
    app = _study_instance(BASE_SEED, study_results.scale)
    assert app is not None
    benchmark.pedantic(
        lambda: ReferenceFTSearch(
            OptimizationProblem(app.deployment, ic_target=0.7),
            FTSearchConfig(node_limit=NODE_LIMIT),
        ).run(),
        rounds=1,
        iterations=1,
    )

    save_figure("fig4_outcomes", render_fig4(study_results))

    targets = study_results.scale.ic_targets
    for target in targets:
        counts = study_results.outcome_counts(target)
        assert sum(counts.values()) == study_results.scale.instances

    # Infeasibility (NUL) grows with the IC constraint (weakly, endpoints).
    nul = outcome_share(study_results, SearchOutcome.INFEASIBLE)
    assert nul[max(targets)] >= nul[min(targets)]

    # Solutions found (BST+SOL) shrink as the constraint tightens.
    solved = {
        target: outcome_share(study_results, SearchOutcome.OPTIMAL)[target]
        + outcome_share(study_results, SearchOutcome.FEASIBLE)[target]
        for target in targets
    }
    assert solved[max(targets)] <= solved[min(targets)]
