"""Process-parallel execution fabric for the experiment grids.

The paper ran its evaluation on a 60-core cluster; the experiment grids
here (every (application, variant, failure-mode) run of the cluster
experiment, every instance of the FT-Search study) are embarrassingly
parallel, so this module fans them out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Design rules that keep parallel runs *bit-identical* to serial ones:

* every task carries an explicit integer seed derived from static task
  keys (never from shared RNG state or worker identity);
* results are merged in task-submission order (``ProcessPoolExecutor
  .map`` preserves input order), never in completion order;
* ``jobs=1`` bypasses the pool entirely and runs the workers in-process,
  in submission order — the exact serial path.

The worker count is resolved from, in order: an explicit ``jobs``
argument (e.g. the CLI's ``--jobs``), the ``REPRO_JOBS`` environment
variable, and finally ``os.cpu_count()``.

Passing a :class:`FabricProfile` to :meth:`run_tasks` records per-task
wall time, queue wait, and per-worker utilization. Profiling never
influences results — timings ride alongside each task's return value and
are stripped before the result list is returned — so the bit-identity
contract holds with or without it.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Optional, Sequence, TypeVar

from repro.errors import ExperimentError

__all__ = [
    "resolve_jobs",
    "run_tasks",
    "TaskTiming",
    "FabricProfile",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count: argument, ``REPRO_JOBS``, CPU count."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS")
        if raw is not None:
            try:
                jobs = int(raw)
            except ValueError:
                raise ExperimentError(
                    f"REPRO_JOBS must be an integer, got {raw!r}"
                )
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class TaskTiming:
    """Wall-clock timing of one fabric task.

    Times are ``time.monotonic`` readings — on Linux the monotonic clock
    is system-wide, so readings taken in worker processes are directly
    comparable with the parent's submission timestamp.
    """

    index: int  # position in the submitted task sequence
    worker: int  # worker process PID (parent PID on the serial path)
    submitted: float
    started: float
    finished: float

    @property
    def seconds(self) -> float:
        """Wall seconds the task spent executing."""
        return self.finished - self.started

    @property
    def queue_wait(self) -> float:
        """Seconds between submission and a worker picking the task up."""
        return self.started - self.submitted


class FabricProfile:
    """Collects task timings from one or more :func:`run_tasks` calls.

    Pass the same profile to several grid phases to get one aggregate
    report; :meth:`summary` renders the JSON-friendly roll-up (per-task
    stats, queue waits, per-worker busy time and utilization).
    """

    def __init__(self, label: str = "fabric") -> None:
        self.label = label
        self.jobs = 0
        self.timings: list[TaskTiming] = []
        self.wall_seconds = 0.0

    def record(
        self, jobs: int, wall_seconds: float, timings: Sequence[TaskTiming]
    ) -> None:
        """Fold one ``run_tasks`` call into the profile."""
        self.jobs = max(self.jobs, jobs)
        self.wall_seconds += wall_seconds
        self.timings.extend(timings)

    def summary(self) -> dict[str, Any]:
        """Aggregate view: task timing, queue wait, worker utilization."""
        n = len(self.timings)
        if n == 0:
            return {
                "label": self.label, "n_tasks": 0, "jobs": self.jobs,
                "wall_seconds": round(self.wall_seconds, 4),
            }
        seconds = [t.seconds for t in self.timings]
        waits = [t.queue_wait for t in self.timings]
        busy: dict[int, float] = {}
        for timing in self.timings:
            busy[timing.worker] = busy.get(timing.worker, 0.0) + timing.seconds
        wall = self.wall_seconds
        workers = [
            {
                "worker": pid,
                "tasks": sum(1 for t in self.timings if t.worker == pid),
                "busy_seconds": round(secs, 4),
                "utilization": round(secs / wall, 4) if wall > 0 else None,
            }
            for pid, secs in sorted(busy.items())
        ]
        return {
            "label": self.label,
            "n_tasks": n,
            "jobs": self.jobs,
            "wall_seconds": round(wall, 4),
            "task_seconds_total": round(sum(seconds), 4),
            "task_seconds_mean": round(sum(seconds) / n, 4),
            "task_seconds_max": round(max(seconds), 4),
            "queue_wait_mean": round(sum(waits) / n, 4),
            "queue_wait_max": round(max(waits), 4),
            "utilization": (
                round(sum(seconds) / (self.jobs * wall), 4)
                if wall > 0 and self.jobs
                else None
            ),
            "workers": workers,
        }


def _timed_call(
    worker: Callable[[Any], Any], task: Any
) -> tuple[Any, int, float, float]:
    """Run one task and report (result, pid, start, end).

    Module-level (and bound to the real worker through
    ``functools.partial``) so the pool can pickle it.
    """
    start = time.monotonic()
    result = worker(task)
    return result, os.getpid(), start, time.monotonic()


def run_tasks(
    worker: Callable[[_T], _R],
    tasks: Sequence[_T],
    jobs: Optional[int] = None,
    profile: Optional[FabricProfile] = None,
) -> list[_R]:
    """Run ``worker`` over ``tasks``, results in task order.

    ``worker`` must be a module-level function and every task picklable
    (ProcessPoolExecutor requirements). With ``jobs=1`` — or a single
    task, where a pool could only add overhead — the workers run
    in-process in submission order: the exact serial path, no pool, no
    pickling.

    With ``profile`` set, per-task timings and the call's wall time are
    folded into it; the returned results are identical either way.
    """
    jobs = resolve_jobs(jobs)
    tasks = list(tasks)
    serial = jobs == 1 or len(tasks) <= 1

    if profile is None:
        if serial:
            return [worker(task) for task in tasks]
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(worker, tasks))

    submitted = time.monotonic()
    timed = functools.partial(_timed_call, worker)
    if serial:
        outputs = [timed(task) for task in tasks]
        effective_jobs = 1
    else:
        effective_jobs = min(jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=effective_jobs) as pool:
            outputs = list(pool.map(timed, tasks))
    wall = time.monotonic() - submitted
    # Strip the timing envelope into the profile.
    profile.record(
        effective_jobs,
        wall,
        [
            TaskTiming(
                index=index,
                worker=pid,
                submitted=submitted,
                started=start,
                finished=end,
            )
            for index, (_, pid, start, end) in enumerate(outputs)
        ],
    )
    return [result for result, *_ in outputs]
