"""The FT-Search algorithm study (Sec. 4.5, Figs. 4-6).

The paper runs FT-Search on 600 generated applications deployed on 1-12
hosts with 2-12 PEs per host under a 10-minute budget, and reports:

* Fig. 4 — how runs terminate (BST / SOL / NUL / TMO) as the IC
  constraint grows from 0.5 to 0.9;
* Fig. 5 — the cost ratio between the first solution and the optimum
  (mean ~1.057) and the time ratio (mean ~0.37), over the instances
  solved to optimality (time here is nodes expanded, see
  :data:`NODE_LIMIT`);
* Fig. 6 — pruning effectiveness: the share of domain values removed by
  each rule and the mean height of the pruned branches.

This module reproduces the study at a configurable scale
(:class:`~repro.experiments.scale.StudyScale`), using the same workload
generator as the cluster experiments with smaller graphs and clusters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.optimizer import (
    FTSearchConfig,
    OptimizationProblem,
    PruneRule,
    ReferenceFTSearch,
    SearchOutcome,
    SearchResult,
    SearchStats,
)
from repro.errors import DeploymentError, ExperimentError, WorkloadError
from repro.experiments.parallel import run_tasks
from repro.experiments.scale import StudyScale
from repro.workloads.generator import (
    ClusterParams,
    GeneratedApplication,
    GeneratorParams,
    generate_application,
)

__all__ = ["StudyRun", "StudyResults", "run_ftsearch_study"]

#: First seed scanned for instances (JSR166, the paper's Fork-Join
#: framework).
BASE_SEED = 166
#: Seeds scanned per requested instance before the study gives up (at
#: the default scale every one of the first 36 seeds places).
SEEDS_PER_INSTANCE = 20
#: FT-Search's budget per (instance, IC target), in expanded nodes, in
#: place of the paper's 10-minute limit, so Figs. 4-6 are the same on
#: every host and worker count; picked by the rule in docs/performance.md,
#: "Figure budgets in nodes". A run that spends it ends SOL or TMO.
NODE_LIMIT = 40_000


@dataclass(frozen=True)
class StudyRun:
    """One (instance, IC target) FT-Search execution."""

    app: str
    n_hosts: int
    n_pes: int
    ic_target: float
    outcome: SearchOutcome
    best_cost: float
    cost_ratio: Optional[float]
    node_ratio: Optional[float]
    stats: SearchStats = field(repr=False)


class StudyResults:
    """Aggregated views of the FT-Search study."""

    def __init__(
        self, scale: StudyScale, runs: list[StudyRun]
    ) -> None:
        self.scale = scale
        self.runs = runs

    def outcome_counts(
        self, ic_target: float
    ) -> dict[SearchOutcome, int]:
        """Fig. 4: termination classes for one IC constraint."""
        counts = {outcome: 0 for outcome in SearchOutcome}
        for run in self.runs:
            if run.ic_target == ic_target:
                counts[run.outcome] += 1
        return counts

    def cost_ratios(self) -> list[float]:
        """Fig. 5a: first/optimal cost ratios (optimally solved runs)."""
        return [
            run.cost_ratio for run in self.runs if run.cost_ratio is not None
        ]

    def node_ratios(self) -> list[float]:
        """Fig. 5b: first/optimal node ratios (optimally solved runs)."""
        return [
            run.node_ratio for run in self.runs if run.node_ratio is not None
        ]

    def merged_stats(self) -> SearchStats:
        """Fig. 6: pruning counters aggregated over every run."""
        merged = SearchStats()
        for run in self.runs:
            merged = merged.merge(run.stats)
        return merged

    def prune_shares(self) -> dict[PruneRule, float]:
        merged = self.merged_stats()
        return {rule: merged.prune_share(rule) for rule in PruneRule}

    def prune_heights(self) -> dict[PruneRule, float]:
        merged = self.merged_stats()
        return {rule: merged.mean_prune_height(rule) for rule in PruneRule}


def _study_instance(
    seed: int, scale: StudyScale
) -> Optional[GeneratedApplication]:
    """A small calibrated application on a randomly sized cluster."""
    rng = random.Random(seed)
    n_hosts = rng.randint(*scale.host_range)
    pes_per_host = rng.randint(*scale.pes_per_host_range)
    n_pes = max(2, (n_hosts * pes_per_host) // 2)
    params = GeneratorParams(n_pes=n_pes, tuple_budget=2000.0)
    cluster = ClusterParams(
        n_hosts=n_hosts, cores_per_host=pes_per_host
    )
    try:
        return generate_application(
            seed, params=params, cluster=cluster, name=f"study-{seed}"
        )
    except (WorkloadError, DeploymentError):
        # Tight slot counts can defeat the anti-affinity placement (all
        # but one host full); such instances are resampled.
        return None


def _search_task(task: tuple[GeneratedApplication, float]) -> StudyRun:
    """Pool worker: one (instance, IC target) FT-Search.

    The study reports first-solution ratios and per-rule prune shares
    and heights — statistics of the paper's depth-first visit order — so
    it runs the reference oracle, not the block engine."""
    app, target = task
    result = ReferenceFTSearch(
        OptimizationProblem(app.deployment, ic_target=target),
        FTSearchConfig(node_limit=NODE_LIMIT),
    ).run()
    return _to_run(app, target, result)


def run_ftsearch_study(
    scale: Optional[StudyScale] = None,
    jobs: Optional[int] = None,
) -> StudyResults:
    """Run the full Fig. 4-6 study grid.

    The instances are the first ``scale.instances`` seeds from
    ``BASE_SEED`` on whose application places, generated in the calling
    process; ``jobs`` fans their (instance, IC target) searches out over
    a process pool (see :mod:`repro.experiments.parallel`), merged in
    task order, so every run is the same for every worker count. Raises
    :class:`ExperimentError` when ``SEEDS_PER_INSTANCE`` seeds per
    instance place too few instances.
    """
    scale = scale or StudyScale.from_env()
    last = BASE_SEED + SEEDS_PER_INSTANCE * scale.instances
    seeds = range(BASE_SEED, last)
    apps: list[GeneratedApplication] = []
    for seed in seeds:
        app = _study_instance(seed, scale)
        if app is not None:
            apps.append(app)
            if len(apps) == scale.instances:
                break
    else:
        raise ExperimentError(
            f"{scale} placed {len(apps)} of {scale.instances} instances"
            f" from seeds {BASE_SEED}..{last - 1}"
        )
    tasks = [(app, target) for app in apps for target in scale.ic_targets]
    return StudyResults(scale, run_tasks(_search_task, tasks, jobs=jobs))


def _to_run(
    app: GeneratedApplication, target: float, result: SearchResult
) -> StudyRun:
    return StudyRun(
        app=app.name,
        n_hosts=len(app.deployment.host_names),
        n_pes=len(app.descriptor.graph.pes),
        ic_target=target,
        outcome=result.outcome,
        best_cost=result.best_cost,
        cost_ratio=result.cost_ratio_first_to_best,
        node_ratio=result.node_ratio_first_to_best,
        stats=result.stats,
    )
