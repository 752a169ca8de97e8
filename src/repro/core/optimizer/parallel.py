"""Multi-process FT-Search: subtree parallelism with a shared bound.

The paper ran FT-Search as a fork-join parallel branch-and-bound. This
driver reproduces that shape by fanning the block engine
(:mod:`repro.core.optimizer.vector`) out over the experiment fabric's
process pool — ``ft_search(jobs > 1)`` lands here; ``jobs`` of ``None``
or 1 never does, and never starts a pool:

1. **Split.** The vectorized engine expands the root level-synchronously
   until the frontier holds at least ``_SPLIT_FACTOR * jobs`` same-depth
   rows, then sorts them into scalar DFS order by rank. Contiguous
   chunks of that ordered frontier become subtree tasks —
   ``_TASKS_PER_JOB * jobs`` of them, so there are more tasks than
   workers and the pool's shared queue drains them as workers free up,
   which is work-stealing in effect: a worker that drew shallow,
   quickly-pruned subtrees pulls more tasks while a worker stuck in a
   deep subtree keeps crunching it. A task replays all its subtree
   roots into *one* multi-row block (the vector engine's forced
   replay), so the per-level numpy overhead — the dominant cost of a
   small subtree — is paid once per task, not once per subtree.

2. **Shared incumbent.** One ``multiprocessing.Value('d')`` holds the
   best objective any worker has proven. Workers poll it between blocks
   (periodic local refresh, adopting it only when it tightens their
   local bound) and publish tighten-only updates under the value's lock,
   so COST prunes compound across subtrees instead of every worker
   re-deriving the same incumbent. Because pruning uses the banded
   threshold (see :mod:`repro.core.optimizer.vector`), a late-arriving
   bound can only remove work, never a near-optimal candidate — which is
   why sharing changes node counts (timing-dependent) but never the
   returned cost or strategy. ``FTSearchConfig.shared_bound=False``
   disables the channel for bitwise-reproducible statistics. The
   driver disarms the bound when a run ends, however it ends.

3. **Merge.** Per-task candidate sets are folded in rank-lexicographic
   order — the global scalar DFS order, regardless of which worker
   finished first — and per-task progress parts merge in task order, so
   the driver's outputs are deterministic functions of the instance.

The pool is persistent (module-level session): forking workers costs
tens of milliseconds, roughly a whole full-mode search, so the first
parallel search in a process warms the pool and later ones reuse it.
:func:`shutdown` tears it down explicitly (tests, benchmarks).
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.core.optimizer.ftsearch import FTSearchConfig
from repro.core.optimizer.outcomes import SearchResult
from repro.core.optimizer.problem import OptimizationProblem
from repro.core.optimizer.vector import (
    BLOCK_ROWS,
    RawSearch,
    VectorFTSearch,
)
from repro.experiments.parallel import PersistentPool

if TYPE_CHECKING:  # import only for annotations: keeps layering flat
    from repro.obs.progress import SearchProgress

__all__ = ["parallel_ft_search", "SharedBound", "shutdown"]

# Frontier rows per worker at the split: enough granularity that task
# chunks balance even when subtree sizes are skewed.
_SPLIT_FACTOR = 4

# Subtree tasks per worker: enough oversplit that the pool queue keeps
# fast workers fed, few enough that per-task overhead stays negligible.
_TASKS_PER_JOB = 2


class SharedBound:
    """Tighten-only incumbent bound over a ``multiprocessing.Value``.

    Implements the :class:`~repro.core.optimizer.vector.BoundChannel`
    protocol. All access goes through the value's lock; :meth:`offer`
    only ever lowers the stored objective, so a worker can never loosen
    the global bound (pinned by the regression tests).
    """

    def __init__(self, value: Any) -> None:
        self._value = value

    def get(self) -> float:
        with self._value.get_lock():
            return float(self._value.value)

    def offer(self, objective: float) -> None:
        with self._value.get_lock():
            if objective < self._value.value:
                self._value.value = objective

    def reset(self, objective: float) -> None:
        """Driver-side re-arm between runs (never called by workers)."""
        with self._value.get_lock():
            self._value.value = objective


@dataclass(frozen=True)
class _SubtreeTask:
    """One unit of parallel work: search the subtrees under ``roots``."""

    problem: OptimizationProblem
    config: FTSearchConfig
    roots: tuple[bytes, ...]
    deadline: Optional[float]  # absolute time.monotonic reading
    node_budget: Optional[int]
    block_rows: int
    use_shared_bound: bool
    progress_every: Optional[int]


# Installed once per worker process by the pool initializer; tasks opt
# in per-run via ``use_shared_bound``.
_WORKER_BOUND: Optional[SharedBound] = None


def _init_worker(value: Any) -> None:
    global _WORKER_BOUND
    _WORKER_BOUND = SharedBound(value)


def _run_subtree(
    task: _SubtreeTask,
) -> tuple[RawSearch, Optional["SearchProgress"]]:
    """Worker entry point: run one subtree, return raw results."""
    progress: Optional["SearchProgress"] = None
    if task.progress_every is not None:
        from repro.obs.progress import SearchProgress

        progress = SearchProgress(every=task.progress_every)
    engine = VectorFTSearch(
        task.problem,
        task.config,
        progress,
        roots=task.roots,
        bound=_WORKER_BOUND if task.use_shared_bound else None,
        block_rows=task.block_rows,
    )
    raw = engine.search(
        deadline=task.deadline, node_budget=task.node_budget
    )
    return raw, progress


@dataclass
class _Session:
    """The process-wide persistent pool plus its inherited bound."""

    jobs: int
    pool: PersistentPool
    bound: SharedBound


_SESSION: Optional[_Session] = None


def _get_session(jobs: int) -> _Session:
    global _SESSION
    if _SESSION is not None and _SESSION.jobs != jobs:
        _SESSION.pool.close()
        _SESSION = None
    if _SESSION is None:
        value = multiprocessing.Value("d", math.inf)
        pool = PersistentPool(
            jobs, initializer=_init_worker, initargs=(value,)
        )
        _SESSION = _Session(jobs=jobs, pool=pool, bound=SharedBound(value))
    return _SESSION


def shutdown() -> None:
    """Tear down the persistent worker pool (idempotent)."""
    global _SESSION
    if _SESSION is not None:
        _SESSION.pool.close()
        _SESSION = None


def parallel_ft_search(
    problem: OptimizationProblem,
    config: Optional[FTSearchConfig] = None,
    progress: Optional["SearchProgress"] = None,
    *,
    block_rows: int = BLOCK_ROWS,
) -> SearchResult:
    """Run the block engine with ``config.jobs`` workers.

    Splits the root frontier into subtree tasks and fans them out over
    the persistent pool (``jobs`` of ``None`` or 1: the plain in-process
    run, no pool, no shared state). Either way the result's optimal cost
    and strategy equal the oracle's on the same instance; node counts
    and prune statistics are the engine's own, and with ``shared_bound``
    they additionally vary run to run. A worker that dies mid-search
    surfaces as :class:`~repro.errors.ExperimentError`; the pool re-forks
    on the next search.
    """
    config = config or FTSearchConfig()
    jobs = config.jobs or 1
    if jobs == 1:
        return VectorFTSearch(
            problem, config, progress, block_rows=block_rows
        ).run()
    start = time.monotonic()
    deadline = (
        None if config.time_limit is None else start + config.time_limit
    )

    part0: Optional["SearchProgress"] = None
    if progress is not None:
        from repro.obs.progress import SearchProgress

        part0 = SearchProgress(every=progress.every)
    engine = VectorFTSearch(
        problem, config, part0, block_rows=block_rows
    )

    prefixes, split_raw = engine.split_frontier(
        max(2, _SPLIT_FACTOR * jobs)
    )
    if not prefixes:
        # The split phase exhausted the search on its own.
        result = engine.build_result([split_raw])
        if progress is not None and part0 is not None:
            progress.absorb(part0)
        return result

    # DFS-adjacent frontier rows are chunked into one multi-root task
    # each, so per-task vector overhead amortizes across subtrees.
    n_tasks = min(len(prefixes), _TASKS_PER_JOB * jobs)
    chunks = [
        tuple(
            prefixes[
                i * len(prefixes) // n_tasks:
                (i + 1) * len(prefixes) // n_tasks
            ]
        )
        for i in range(n_tasks)
    ]

    node_budget: Optional[int] = None
    if config.node_limit is not None:
        remaining = max(0, config.node_limit - split_raw.nodes)
        node_budget = max(1, remaining // n_tasks)

    session = _get_session(jobs)
    # Arm the shared bound with everything the driver already knows:
    # the seed incumbent (greedy/warm) and any split-phase leaves.
    session.bound.reset(split_raw.best_raw)
    tasks = [
        _SubtreeTask(
            problem=problem,
            config=config,
            roots=chunk,
            deadline=deadline,
            node_budget=node_budget,
            block_rows=block_rows,
            use_shared_bound=config.shared_bound,
            progress_every=None if progress is None else progress.every,
        )
        for chunk in chunks
    ]
    try:
        outputs = session.pool.map(_run_subtree, tasks)
    finally:
        # However the run ended, its incumbent must not outlive it.
        session.bound.reset(math.inf)

    raws = [split_raw] + [raw for raw, _ in outputs]
    # Progress is finalized by hand below (merge in task order), so the
    # engine must not finish part0 with fleet-wide totals.
    engine._progress = None
    result = engine.build_result(raws)

    if progress is not None and part0 is not None:
        from repro.obs.progress import SearchProgress

        parts = [part0] + [
            part for _, part in outputs if part is not None
        ]
        merged = SearchProgress.merge(parts, every=progress.every)
        merged.finish(
            result.stats.nodes_expanded,
            None if result.strategy is None else result.best_cost,
            {
                rule.value: count
                for rule, count in result.stats.prune_counts.items()
            },
        )
        progress.absorb(merged)
    return result
