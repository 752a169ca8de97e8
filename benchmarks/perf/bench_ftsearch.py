"""FT-Search microbenchmark: the oracle, the block engine, its pool driver.

Runs one pinned, fully-exhaustible instance (no time budget) three ways
and reports nodes expanded per second:

* ``ReferenceFTSearch`` — the recursive oracle, the yardstick;
* ``VectorFTSearch`` — the production block engine, in-process (what
  ``ft_search`` runs by default);
* ``ft_search(jobs=4)`` — the same engine fanned out over the pool.

The block engine promises *cost and strategy* equality against the
oracle (node counts are engine-specific); that is asserted here on every
run, as is byte-equality of two progress-snapshot series of the engine.

Writes its report into ``BENCH_ftsearch.json`` next to this script: the
file holds one section per mode (``"full"``, ``"smoke"``) and a run
replaces only its own, so both baselines stay committed.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_ftsearch.py [--smoke]

``--smoke`` switches to a much smaller instance and a single round — a
seconds-long CI sanity check of the harness, not a measurement.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro.core.optimizer import (
    FTSearchConfig,
    OptimizationProblem,
    ReferenceFTSearch,
    SearchResult,
    VectorFTSearch,
    ft_search,
)
from repro.core.optimizer.parallel import shutdown
from repro.obs.progress import SearchProgress
from repro.workloads.generator import (
    ClusterParams,
    GeneratorParams,
    generate_application,
)

OUT_PATH = Path(__file__).parent / "BENCH_ftsearch.json"

#: The pinned reference instance: ~40k nodes to exhaustion, large enough
#: that per-node work dominates setup but small enough to rerun in
#: seconds. Changing it invalidates speedup comparisons across commits.
FULL = dict(seed=2, n_pes=10, n_hosts=4, cores_per_host=5, ic_target=0.6)
SMOKE = dict(seed=2014, n_pes=6, n_hosts=3, cores_per_host=4, ic_target=0.6)

#: Worker count for the parallel-driver measurement. Efficiency is
#: reported against the in-process engine, so an oversubscribed runner
#: shows up as a low number rather than a bogus speedup.
PARALLEL_JOBS = 4


def _instance(spec: dict) -> OptimizationProblem:
    app = generate_application(
        spec["seed"],
        params=GeneratorParams(n_pes=spec["n_pes"], tuple_budget=2000.0),
        cluster=ClusterParams(
            n_hosts=spec["n_hosts"], cores_per_host=spec["cores_per_host"]
        ),
        name="bench",
    )
    return OptimizationProblem(app.deployment, ic_target=spec["ic_target"])


def _activation_matrix(strategy: Any) -> Optional[tuple]:
    """Engine-agnostic strategy fingerprint: active PEs per config."""
    if strategy is None:
        return None
    n_configs = len(strategy.deployment.descriptor.configuration_space)
    return tuple(
        tuple(sorted(strategy.active_map(c).items()))
        for c in range(n_configs)
    )


def _assert_same_optimum(
    result: SearchResult, oracle: SearchResult, engine: str
) -> None:
    """Cost/strategy equality — the block engine's contract."""
    assert result.outcome is oracle.outcome, engine
    assert result.best_cost == oracle.best_cost, engine
    assert result.best_ic == oracle.best_ic, engine
    assert _activation_matrix(result.strategy) == _activation_matrix(
        oracle.strategy
    ), engine


def _time_runs(
    run: Callable[[], SearchResult], rounds: int
) -> tuple[float, int, SearchResult]:
    """Best-of-``rounds`` wall time, that round's node count, a result."""
    best = float("inf")
    nodes = 0
    result: Optional[SearchResult] = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            nodes = result.stats.nodes_expanded
    assert result is not None
    return best, nodes, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny instance, one round: harness sanity check only",
    )
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args()

    spec = SMOKE if args.smoke else FULL
    rounds = args.rounds or (1 if args.smoke else 3)
    problem = _instance(spec)
    config = FTSearchConfig(time_limit=None)

    ref_time, ref_nodes, ref_result = _time_runs(
        lambda: ReferenceFTSearch(problem, config).run(), rounds
    )

    # The block engine in-process: same optimum, engine-specific node
    # count (block folding changes the incumbent discovery order).
    vec_time, vec_nodes, vec_result = _time_runs(
        lambda: VectorFTSearch(problem, config).run(), rounds
    )
    _assert_same_optimum(vec_result, ref_result, "vector")

    # The multi-process driver: one discarded warm-up run forks the
    # persistent pool so the timed rounds measure search, not fork.
    try:
        ft_search(problem, time_limit=None, jobs=PARALLEL_JOBS)
        par_time, par_nodes, par_result = _time_runs(
            lambda: ft_search(
                problem, time_limit=None, jobs=PARALLEL_JOBS
            ),
            rounds,
        )
    finally:
        shutdown()
    _assert_same_optimum(par_result, ref_result, "parallel")

    # Two separately instrumented runs (outside the timing loops):
    # progress snapshots are keyed on the deterministic node counter, so
    # the series must repeat byte for byte.
    every = max(1, vec_nodes // 8)
    progress = SearchProgress(every=every)
    again = SearchProgress(every=every)
    VectorFTSearch(problem, config, progress=progress).run()
    VectorFTSearch(problem, config, progress=again).run()
    assert progress.to_list() == again.to_list(), (
        "progress snapshot series differs between identical runs"
    )

    mode = "smoke" if args.smoke else "full"
    report = {
        "instance": spec,
        "mode": mode,
        "rounds": rounds,
        "reference_seconds": round(ref_time, 4),
        "reference_nodes_expanded": ref_nodes,
        "reference_nodes_per_sec": round(ref_nodes / ref_time),
        "vector_seconds": round(vec_time, 4),
        "vector_nodes_expanded": vec_nodes,
        "vector_nodes_per_sec": round(vec_nodes / vec_time),
        "vector_speedup": round(ref_time / vec_time, 2),
        "parallel_jobs": PARALLEL_JOBS,
        "parallel_seconds": round(par_time, 4),
        "parallel_nodes_expanded": par_nodes,
        "parallel_nodes_per_sec": round(par_nodes / par_time),
        "efficiency": round(
            vec_time / (par_time * PARALLEL_JOBS), 3
        ),
        "progress_every": every,
        "progress_snapshots": progress.to_list(),
    }
    sections = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    sections[mode] = report
    OUT_PATH.write_text(json.dumps(sections, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"written to {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
