"""Experiment-fabric benchmark: serial vs process-parallel grid runs.

Times ``run_cluster_experiment`` at a pinned scale with ``jobs=1`` and
``jobs=N`` (default: min(4, CPU count)), checks the two grids are
bit-identical, and writes ``BENCH_experiments.json`` next to this
script.

The corpus is built from small applications whose FT-Search runs
exhaust their spaces inside the budget — the precondition for the
bit-identity check (see tests/experiments/test_parallel.py). Speedup
scales with physical cores; on a single-core machine the pool can only
time-slice and the ratio stays near (or below) 1.0, which the report
records via ``cpu_count``.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_experiments.py [--smoke] [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.experiments.cluster import BASE_SEED, run_cluster_experiment
from repro.experiments.parallel import FabricProfile
from repro.experiments.scale import ExperimentScale
from repro.workloads.generator import (
    ClusterParams,
    GeneratorParams,
    generate_corpus,
)

OUT_PATH = Path(__file__).parent / "BENCH_experiments.json"

FULL = ExperimentScale(
    corpus_size=6, crash_corpus_size=3, trace_seconds=20.0, ft_time_limit=5.0
)
SMOKE = ExperimentScale(
    corpus_size=2, crash_corpus_size=1, trace_seconds=6.0, ft_time_limit=5.0
)


def _corpus(scale: ExperimentScale):
    return generate_corpus(
        scale.corpus_size,
        BASE_SEED,
        params=GeneratorParams(n_pes=6, tuple_budget=2000.0),
        cluster=ClusterParams(n_hosts=3, cores_per_host=4),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny grid, CI sanity check only",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="parallel worker count (default: min(4, CPU count))",
    )
    args = parser.parse_args()

    scale = SMOKE if args.smoke else FULL
    jobs = args.jobs or min(4, os.cpu_count() or 1)
    corpus = _corpus(scale)

    start = time.perf_counter()
    serial = run_cluster_experiment(scale, corpus=corpus, jobs=1)
    serial_time = time.perf_counter() - start

    fabric = FabricProfile(label="cluster-grid")
    start = time.perf_counter()
    parallel = run_cluster_experiment(
        scale, corpus=corpus, jobs=jobs, profile=fabric
    )
    parallel_time = time.perf_counter() - start

    identical = serial._rows == parallel._rows

    report = {
        "mode": "smoke" if args.smoke else "full",
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "grid_runs": len(serial._rows),
        "serial_seconds": round(serial_time, 2),
        "parallel_seconds": round(parallel_time, 2),
        "speedup": round(serial_time / parallel_time, 2),
        "bit_identical": identical,
        "fabric": fabric.summary(),
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"written to {OUT_PATH}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
