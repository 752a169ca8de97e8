"""A from-scratch discrete-event simulation kernel.

This is the substrate under :mod:`repro.dsps` (the stream platform
simulator). It provides:

* an :class:`Environment` with a monotonically advancing virtual clock and
  a binary-heap event queue with deterministic FIFO tie-breaking;
* cancellable scheduled callbacks (:class:`EventHandle`).

Callbacks are the only unit of work. A recurring actor (a source's
trace playback, the Rate Monitor, a sampler, a heartbeat, a watchdog)
is a callback that schedules its own next firing, last, once its
effects for this firing are done; each one schedules a zero-delay start
event when it is built, so every actor's first draw happens once the
run starts, in construction order. A recurring actor whose firings
mostly decide nothing is started with :meth:`Environment.recur`
instead: its firing is a *step* an attached engine may also apply
without a heap event.

The design follows the classic event-list simulation loop; it is
deliberately minimal (no shared resources, no preemption) because the DSPS
layer models CPU contention explicitly through per-core service queues.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.errors import SimulationError

__all__ = ["Environment", "EventHandle"]

#: One firing of a chain (:meth:`Environment.recur`): applied at the
#: given time, it returns the delay to the next firing, or None to stop.
Step = Callable[[float], Optional[float]]


def _never() -> None:
    """The callback of an event pending when its environment closed."""


class EventHandle:
    """A scheduled callback; ``cancel()`` prevents it from firing."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Chain:
    """The callback of every firing of one chain (see
    :meth:`Environment.recur`): the step, then the next firing."""

    __slots__ = ("env", "step", "idle")

    def __init__(
        self,
        env: Environment,
        step: Step,
        idle: Callable[[float], bool],
    ) -> None:
        self.env = env
        self.step = step
        self.idle = idle

    def __call__(self) -> None:
        env = self.env
        now = env._now
        after = self.step(now)
        if after is not None:
            env.push_firing(now + after, env.take_seq(), self)


class Environment:
    """The simulation clock and event queue.

    ``telemetry`` may be set to a :class:`repro.obs.events.EventLog`
    (the platform layer does this); when present, :meth:`run` emits
    ``sim.run.start`` / ``sim.run.end`` events. The kernel stays
    import-free of the observability layer — the attribute is duck-typed
    and defaults to None, costing nothing when unused.

    ``engine`` may be set to a batched execution engine (see
    :mod:`repro.dsps.batched`): an object that owns *out-of-heap* events
    (source arrivals) drawing sequence numbers from :meth:`take_seq`
    like everything on the heap. Before dispatching each heap event the
    kernel calls ``engine.advance(until)``, which runs every engine
    event that precedes the first live heap event (and is not beyond
    ``until``) and does the lazy purge in the kernel's stead: it drops
    and counts a cancelled head only when no engine event precedes it,
    as a run with those events on the heap would — so when ``advance``
    returns the head is live, or lies behind an engine event that is
    itself beyond ``until``. Inside ``advance`` the engine may also
    take chain firings (see :meth:`recur`) off the heap, apply the idle
    ones as steps and push each chain's next firing back, and fire heap
    events through :meth:`fire_head`.
    Like ``telemetry``, the attribute is duck-typed and defaults to
    None, costing one comparison per event when unused.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._sequence = 0
        self._events_processed = 0
        self._events_cancelled = 0
        self.telemetry = None
        self.engine = None

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        """Events whose callback actually ran (cancelled ones excluded)."""
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Cancelled events discarded from the queue so far."""
        return self._events_cancelled

    def take_seq(self) -> int:
        """Allocate the next event sequence number (FIFO tie-break key).

        The heap and any attached engine draw from the *same* sequence so
        their merged event stream keeps one global FIFO order.
        """
        seq = self._sequence
        self._sequence = seq + 1
        return seq

    def engine_fire(self, time: float) -> None:
        """Advance the clock to one engine-executed event and count it."""
        if time < self._now:
            raise SimulationError("event queue went back in time")
        self._now = time
        self._events_processed += 1

    def engine_account(self, processed: int = 0, cancelled: int = 0) -> None:
        """Bulk-count events the engine executed or discarded in closed
        form (the clock is advanced separately via :meth:`engine_fire`)."""
        self._events_processed += processed
        self._events_cancelled += cancelled

    def advance_clock(self, time: float) -> None:
        """Move the clock forward without counting an event (the engine
        stamps the end of a closed-form batch this way)."""
        if time < self._now:
            raise SimulationError("event queue went back in time")
        self._now = time

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        seq: Optional[int] = None,
    ) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated seconds.

        The callback may do anything: read and change any state, emit
        events, schedule more events. Recurring work whose firings
        mostly decide nothing is a chain instead (:meth:`recur`), whose
        firing is a *step* an attached engine may apply without a heap
        event: a step must read its time from its argument, emit
        nothing, and touch only its actor's private state.

        ``seq`` schedules under a *reserved* sequence number: one the
        caller drew from :meth:`take_seq` earlier, at the point where it
        would otherwise have pushed an event it already knew it was
        about to supersede (the host scheduler's dispatch window, see
        :class:`repro.dsps.hosts.HostScheduler`). The event ties with
        its equal-time neighbours exactly as that superseded event
        would have. A number that was never drawn is rejected; drawing a
        number and using it at most once is the caller's contract.
        """
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"cannot schedule in the past: {delay}")
        if seq is None:
            seq = self._sequence
            self._sequence = seq + 1
        elif seq >= self._sequence:
            raise SimulationError(
                f"sequence number {seq} was never drawn"
                f" (next is {self._sequence})"
            )
        handle = EventHandle(self._now + delay, callback)
        heapq.heappush(self._queue, (handle.time, seq, handle))
        return handle

    def recur(
        self, delay: float, step: Step, idle: Callable[[float], bool]
    ) -> None:
        """Start a chain: ``step`` fires ``delay`` from now, and again
        each time the delay it returns runs out, until it returns None.

        Each firing is one heap event whose callback is ``step(now)``
        followed by scheduling the next firing, so the tuple-granular
        loop runs a chain like any self-rescheduling callback and never
        calls ``idle``. ``idle(time)`` is a pure probe: True promises
        that the firing at ``time`` changes no control-plane state and
        neither reads nor writes anything an attached engine replays in
        closed form (replica, host and metric counters, queues). An
        engine may then apply that firing itself, inside a closed-form
        batch: it calls ``step(time)``, draws the one sequence number
        the reschedule would have drawn at ``time``, counts the firing
        as processed, and puts the chain's next firing back on the heap
        when the batch ends.

        So a step must read its time from its argument, never from
        :attr:`now`; it must emit nothing and schedule nothing; and on
        a firing its probe calls idle it may read control-plane state
        but change only the actor's private state. A chain has no
        handle to cancel: it stops when its step returns None.
        """
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"cannot schedule in the past: {delay}")
        chain = Chain(self, step, idle)
        self.push_firing(self._now + delay, self.take_seq(), chain)

    def push_firing(self, time: float, seq: int, chain: Chain) -> None:
        """Put ``chain``'s firing at ``time`` on the heap under ``seq``,
        a number already drawn."""
        heapq.heappush(self._queue, (time, seq, EventHandle(time, chain)))

    def fire_head(self) -> None:
        """Pop and run the heap head exactly as :meth:`run` would.

        For the attached engine, inside ``advance``: it vouches that the
        head is live and that every sequence draw of its own events
        below the head has been flushed into the kernel before calling.
        """
        time, _seq, handle = heapq.heappop(self._queue)
        if time < self._now:
            raise SimulationError("event queue went back in time")
        self._now = time
        self._events_processed += 1
        handle.callback()

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self._now})"
            )
        return self.schedule(time - self._now, callback)

    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order.

        With ``until`` set, the clock stops exactly at ``until`` (events
        scheduled at ``until`` are processed; later ones stay queued).
        Without it, runs until the queue drains.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until}, already at {self._now}"
            )
        if self.telemetry is not None:
            self.telemetry.emit("sim.run.start", until=until)
        engine = self.engine
        queue = self._queue
        heappop = heapq.heappop
        while True:
            if engine is None:
                # The lazy purge of _purge_cancelled, inlined.
                while queue and queue[0][2].cancelled:
                    heappop(queue)
                    self._events_cancelled += 1
            else:
                engine.advance(until)
            if not queue:
                break
            time, _seq, handle = queue[0]
            if until is not None and time > until:
                break
            heappop(queue)
            if time < self._now:  # pragma: no cover - defensive
                raise SimulationError("event queue went back in time")
            self._now = time
            self._events_processed += 1
            handle.callback()
        if until is not None:
            self._now = max(self._now, until)
        if self.telemetry is not None:
            self.telemetry.emit(
                "sim.run.end",
                events_processed=self._events_processed,
                events_cancelled=self._events_cancelled,
            )

    def close(self) -> None:
        """Drop the pending heap, the engine and the telemetry log.

        Their callbacks and hooks lead back to whatever owns this
        environment, so dropping them lets that owner be freed by
        reference counting once its run is over. A pending event's
        handle can outlive the heap (a migration window keeps the handle
        of its next step), so each pending handle drops its callback and
        idle probe too.
        """
        for _time, _seq, handle in self._queue:
            handle.callback = _never
        self._queue = []
        self.engine = None
        self.telemetry = None

    def _purge_cancelled(self) -> None:
        """Drop cancelled events from the head of the queue lazily."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
            self._events_cancelled += 1
