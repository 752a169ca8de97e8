"""Host CPU model: event-driven processor sharing.

Eq. 11 of the paper treats each host as a fluid capacity of ``K`` CPU
cycles per second shared by the replicas it runs (on the real cluster the
operating system time-slices the busy-wait PEs over the host's cores).
:class:`HostScheduler` simulates exactly that: all replicas with work in
progress share the host's capacity equally, so a host is overloaded —
queues grow without bound — precisely when the summed demand of its
*active* replicas reaches ``K``. This is the mechanism LAAR exploits:
deactivating a replica immediately returns its share to its host-mates.

CPU *time* is accounted in core-seconds: a tuple that costs ``gamma``
cycles consumes ``gamma / cycles_per_core`` CPU seconds regardless of how
processor sharing stretched its wall-clock service time, matching how the
paper measures "total CPU time used" from the PE processes.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim import Environment, EventHandle

__all__ = ["HostScheduler"]

# Completion slack: clock arithmetic at ~1e9 cycles/s loses up to ~1e-4
# cycles per event to floating point, so treat anything below half a cycle
# as done (per-tuple costs are >= thousands of cycles in practice).
_EPSILON_CYCLES = 0.5


#: A job in progress: ``[total cycles, remaining cycles, callback]``. A
#: list literal is built without a Python ``__init__`` call; the hot
#: paths index it as ``job[1]`` (remaining) and ``job[2]`` (callback).
_Job = list[Any]


class HostScheduler:
    """Equal-share processor scheduling of one host's CPU cycles.

    The host keeps at most one live completion event on the kernel heap:
    the instant its shortest job finishes. Every change of the job set or
    of the capacity (``submit``, ``cancel``, ``set_speed_factor``, a
    completion) supersedes that event with a fresh one.

    **The dispatch window.** A completion hands the finished jobs'
    callbacks the CPU they freed, and the usual callback starts the
    owner's next queued tuple on this very host at this very instant. So
    while :meth:`_on_completion` runs its callbacks, a reschedule of
    *this* host pushes nothing: it only draws the sequence number the
    superseded event would have carried (none when no job is left) and
    remembers it. After the last callback one event is pushed under the
    last number drawn (``Environment.schedule(..., seq=...)``). No time
    passes inside the window, so that event has bit for bit the
    ``(time, seq)`` of the last one a push-per-reschedule scheduler
    would have left alive, and the kernel's sequence counter advances
    identically; the only observable difference is that the superseded
    events were never on the heap (``Environment.events_cancelled``
    counts fewer). A callback that raises still closes the window.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        capacity: float,
        cycles_per_core: float,
    ) -> None:
        if capacity <= 0 or not math.isfinite(capacity):
            raise SimulationError(
                f"host {name!r} capacity must be finite and > 0,"
                f" got {capacity}"
            )
        if cycles_per_core <= 0 or not math.isfinite(cycles_per_core):
            raise SimulationError(
                f"host {name!r} cycles_per_core must be finite and > 0,"
                f" got {cycles_per_core}"
            )
        self._env = env
        self.name = name
        self.capacity = capacity
        self._base_capacity = capacity
        self.speed_factor = 1.0
        self.cycles_per_core = cycles_per_core
        self._jobs: dict[object, _Job] = {}
        self._last_update = env.now
        self._completion: Optional[EventHandle] = None
        # The dispatch window: open while _on_completion runs callbacks;
        # _reserved is the sequence number drawn by the window's latest
        # reschedule (None: that reschedule found the host idle).
        self._dispatching = False
        self._reserved: Optional[int] = None
        self.cycles_delivered = 0.0
        #: Hook fired when delivered capacity changes mid-run (the
        #: platform bumps its control epoch here).
        self.on_speed_change: Callable[[], None] = lambda: None

    # ------------------------------------------------------------------
    # Public interface (used by OperatorReplica)
    # ------------------------------------------------------------------

    @property
    def busy_jobs(self) -> int:
        return len(self._jobs)

    def submit(
        self, owner: object, cycles: float, callback: Callable[[], None]
    ) -> None:
        """Start processing ``cycles`` for ``owner``; ``callback`` fires on
        completion. An owner may have at most one job in progress."""
        # One chained comparison: false for negatives, NaN and infinity.
        if not 0.0 <= cycles < math.inf:
            raise SimulationError(
                f"job cycles on host {self.name!r} must be finite and"
                f" >= 0, got {cycles}"
            )
        jobs = self._jobs
        if owner in jobs:
            raise SimulationError(
                f"owner already has a job on host {self.name!r}"
            )
        if self._dispatching:
            # _on_completion advanced to this instant; draw what
            # _reschedule would draw (the set is not empty now).
            jobs[owner] = [cycles, cycles, callback]
            env = self._env
            self._reserved = env._sequence
            env._sequence += 1
            return
        self._advance()
        jobs[owner] = [cycles, cycles, callback]
        if self._completion is not None:
            self._completion.cancel()
        self._push()

    def cancel(self, owner: object) -> float:
        """Abort ``owner``'s job; returns the cycles already consumed
        (0.0, touching nothing, when the owner has no job here)."""
        if owner not in self._jobs:
            return 0.0
        self._advance()
        job = self._jobs.pop(owner)
        self._reschedule()
        return job[0] - max(job[1], 0.0)

    def cpu_seconds(self, cycles: float) -> float:
        """Convert cycles to CPU core-seconds for metric accounting."""
        return cycles / self.cycles_per_core

    def set_speed_factor(self, factor: float) -> None:
        """Scale the host's delivered capacity mid-run (straggler model).

        In-progress jobs keep the cycles they have already consumed; the
        remaining work proceeds at ``factor`` times the nominal rate until
        the factor changes again. ``factor = 1.0`` restores nominal speed.
        CPU-*time* accounting (``cpu_seconds``) stays nominal: a degraded
        host stretches wall-clock service, it does not change how many
        core-seconds a tuple is billed.
        """
        if factor <= 0 or not math.isfinite(factor):
            raise SimulationError(
                f"host {self.name!r} speed factor must be finite and > 0,"
                f" got {factor}"
            )
        self._advance()
        self.speed_factor = factor
        self.capacity = self._base_capacity * factor
        self._reschedule()
        self.on_speed_change()

    # ------------------------------------------------------------------
    # Processor-sharing mechanics
    # ------------------------------------------------------------------

    def _advance(self) -> None:
        # _on_completion spells this arithmetic again, fused with its scan
        # for finished jobs; keep the two expressions identical.
        if self._dispatching:
            return  # _on_completion advanced to this very instant
        now = self._env._now
        elapsed = now - self._last_update
        self._last_update = now
        jobs = self._jobs
        if elapsed <= 0 or not jobs:
            return
        count = len(jobs)
        progress = self.capacity / count * elapsed
        self.cycles_delivered += progress * count
        for job in jobs.values():
            job[1] -= progress

    def _reschedule(self) -> None:
        if self._dispatching:
            # Draw exactly where a push would have drawn; _on_completion
            # pushes once, under the last number, when the window closes.
            self._reserved = self._env.take_seq() if self._jobs else None
            return
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        if self._jobs:
            self._push()

    def _push(self, seq: Optional[int] = None) -> None:
        """Schedule the completion of the shortest job (``seq``: under an
        already-drawn sequence number instead of a fresh one)."""
        jobs = self._jobs
        shortest = math.inf
        for job in jobs.values():
            if job[1] < shortest:
                shortest = job[1]
        if shortest < 0.0:  # max(shortest, 0.0), without the call
            shortest = 0.0
        delay = shortest / (self.capacity / len(jobs))
        self._completion = self._env.schedule(
            delay, self._on_completion, seq=seq
        )

    def _on_completion(self) -> None:
        # _advance, the finished-job scan and _reschedule's draw, inline:
        # this runs once per completion.
        self._completion = None
        env = self._env
        now = env._now
        elapsed = now - self._last_update
        self._last_update = now
        jobs = self._jobs
        progress = 0.0
        if elapsed > 0 and jobs:
            count = len(jobs)
            progress = self.capacity / count * elapsed
            self.cycles_delivered += progress * count
        finished = []
        for owner, job in jobs.items():
            job[1] -= progress  # minus 0.0 leaves any float as is
            if job[1] <= _EPSILON_CYCLES:
                finished.append((owner, job))
        for owner, _ in finished:
            del jobs[owner]
        if jobs:
            self._reserved = env._sequence
            env._sequence += 1
        else:
            self._reserved = None
        self._dispatching = True
        try:
            for _, job in finished:
                job[2]()
        finally:
            self._dispatching = False
            reserved, self._reserved = self._reserved, None
            if reserved is not None:
                self._push(reserved)
