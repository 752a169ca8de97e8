"""Batched execution engine: interval-closed-form tuple processing.

The tuple-granular kernel spends ~15 heap events per source tuple
(submits, processor-sharing reschedules, completions). At fleet scale —
ROADMAP item 5's 10k-tenant scenarios — that arithmetic dominates the
entire experiment pipeline. This module removes it *without changing a
single observable byte*: between scheduled (heap) events the platform's
behaviour over a constant-rate interval is a closed-form function of the
interval, so the engine advances replica counters, processor-sharing
accounting and selectivity credits directly instead of replaying each
tuple through the event heap.

Three cooperating tiers, all exact:

* **micro events** — source arrivals and host completions executed
  one-by-one through the *real* :class:`~repro.dsps.operators`
  / :class:`~repro.dsps.hosts` code, but stored in the engine's slot
  table instead of the kernel heap (cheaper than heap churn, still
  tuple-granular). This is the fallback while work is in flight across
  a failure / switch / chaos action, where the invariant checker and
  failover spans need tuple-level fidelity.
* **cascade recipes** — when the platform is *quiescent* (no in-flight
  work, no live heap event before the cascade would finish) the full
  downstream effect of one source tuple is a fixed cascade: a known
  sequence of cluster completions with known float-exact service delays. The engine builds
  that cascade once per (source, control epoch) as a *template* and then
  commits each arrival in one pass — replaying the exact floating-point
  operations (processor-sharing progress, selectivity credit adds) the
  tuple-granular kernel would have performed, and bulk-advancing the
  kernel's event/sequence counters so heap tie-breaking and the
  ``sim.run.end`` accounting stay identical.
* **run commits** — the steady-state tier on top of recipes: when the
  template is *runnable* (every selectivity ≤ 1 and every cluster
  single-member, which the k-replica distinct-host placement
  guarantees) and its source is the only live cursor, an unbroken
  train of cascades is committed in one pass over a flat
  :class:`_RunLayout`. Per-step emit/exec counts are derived at
  writeback instead of counted per cascade, sequence numbers are
  replayed locally, and arrival RNG draws are consumed inline — this
  tier carries the order-of-magnitude fleet speedup reported in
  ``BENCH_sim.json`` (``stats["runs"]`` counts its engagements).

A template is only considered *simple* (usable) when per-tuple dynamics
cannot deviate from it: no tuple tracing, no PE reachable along two
paths, no overlapping processor-sharing episodes on a host, and a
primary whose identity is stable for the control epoch. Everything else
— and any arrival whose precheck discovers a selectivity multiplicity
other than 0 or 1 — falls back to micro events before any state is
mutated. Control-plane activity (crashes, recoveries, activation
switches, host degradation, migration attach/detach) bumps the engine
epoch, invalidating the templates; the next arrival that finds no work
in flight rebuilds them from the deployment as it then stands. The
:class:`FallbackTracker` window the same action opens is a marker in
the event log (both modes emit it), not an execution mode: eligibility
depends on platform state, never on elapsed time.

A heap event scheduled with an ``idle`` probe (see
:meth:`repro.sim.kernel.Environment.schedule`) does not end a run
commit: when a cascade's bound reaches it and it probes idle, the train
fires it in place with the exact sequence number and carries on
(:meth:`BatchEngine._cross_idle`; ``stats["idle_crossed"]``). Periodic
control ticks that decide to change nothing are the case it exists for.

Byte-identity of the resulting event logs between this engine and the
plain kernel is enforced by ``tests/sim/test_batched_equivalence.py``
on the pinned scenario suite and by
``tests/sim/test_generated_equivalence.py`` on generated applications,
traces, control schedules and ticks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.dsps.metrics import (
    LatencyRecorder,
    NetworkMetrics,
    PortCounters,
    ReplicaMetrics,
    TimeSeries,
)
from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.dsps.endpoints import SinkOperator, SourceOperator
    from repro.dsps.hosts import HostScheduler
    from repro.dsps.operators import OperatorReplica
    from repro.dsps.platform import StreamPlatform
    from repro.obs.events import EventLog
    from repro.obs.registry import MetricsRegistry
    from repro.sim import Environment, EventHandle

__all__ = ["BatchEngine", "EngineTimer", "FallbackTracker"]

#: Isolation margin (seconds) added to a cascade's symbolic span before
#: comparing against foreign event times. Committed cascade times are
#: floating-point chains anchored at the arrival time; the symbolic
#: offsets used for eligibility can differ from them by a few ulp, so
#: any foreign event within the margin conservatively forces the exact
#: (micro) path instead of trusting the comparison.
_GUARD_MARGIN = 1e-6

#: Upper bound on cascade size; larger graphs fall back to micro events.
_MAX_STEPS = 128


class FallbackTracker:
    """Merged windows of control-plane disturbance.

    Every platform control action (crash, recover, activate, deactivate,
    degrade, restore, attach, detach) opens — or extends — a fixed-width
    settle window. The tracker is attached in *both* execution modes and
    emits one ``batch.fallback`` event per window opening, so event logs
    stay byte-identical across modes while reports can show how much of
    a run the control plane kept disturbing. It only accounts: the
    batched engine decides its path from platform state.
    """

    __slots__ = ("_events", "_clock", "settle", "windows", "covered", "_end")

    def __init__(
        self,
        events: Optional["EventLog"],
        clock: Callable[[], float],
        settle: float,
    ) -> None:
        if settle < 0:
            raise SimulationError(f"settle must be >= 0, got {settle}")
        self._events = events
        self._clock = clock
        #: Window width in simulated seconds after each control action.
        self.settle = settle
        #: Number of merged fallback windows opened so far.
        self.windows = 0
        #: Total simulated seconds covered by fallback windows.
        self.covered = 0.0
        self._end = -math.inf

    def on_control(self, reason: str) -> None:
        """A control action happened now: open or extend a window."""
        now = self._clock()
        end = now + self.settle
        if now >= self._end:
            self.windows += 1
            self.covered += self.settle
            if self._events is not None:
                self._events.emit("batch.fallback", reason=reason, until=end)
        elif end > self._end:
            self.covered += end - self._end
        if end > self._end:
            self._end = end


class _CompletionSlot:
    """A pending host completion; duck-compatible with ``EventHandle``."""

    __slots__ = ("time", "seq", "callback", "cancelled", "_timer")

    def __init__(
        self,
        timer: "EngineTimer",
        time: float,
        seq: int,
        callback: Callable[[], None],
    ) -> None:
        self._timer = timer
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self._timer._on_cancel(self)


class EngineTimer:
    """One host's completion backend in the engine's slot table.

    A :class:`~repro.dsps.hosts.HostScheduler` holds at most one pending
    completion, so the timer is a single slot. Cancelled slots become
    *ghosts* in the engine's ghost heap: they are counted as cancelled
    exactly when a tuple-granular run's lazy heap purge would have
    discarded them (when their key becomes the lowest outstanding one),
    keeping the ``sim.run.end`` counters byte-identical.
    """

    __slots__ = ("_engine", "slot")

    def __init__(self, engine: "BatchEngine") -> None:
        self._engine = engine
        self.slot: Optional[_CompletionSlot] = None

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> _CompletionSlot:
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"cannot schedule in the past: {delay}")
        engine = self._engine
        env = engine._env
        if self.slot is not None:  # pragma: no cover - defensive
            raise SimulationError("timer already holds a pending completion")
        slot = _CompletionSlot(self, env.now + delay, env.take_seq(), callback)
        self.slot = slot
        engine._live_timers += 1
        return slot

    def _on_cancel(self, slot: _CompletionSlot) -> None:
        if self.slot is slot:
            self.slot = None
            engine = self._engine
            engine._live_timers -= 1
            heapq.heappush(engine._ghosts, (slot.time, slot.seq))


class _SourceCursor:
    """Engine-side replacement for one source's kernel process."""

    __slots__ = (
        "source",
        "gen",
        "prev",
        "time",
        "seq",
        "primed",
        "live",
        "pending",
        "has_pending",
    )

    def __init__(
        self, source: "SourceOperator", time: float, seq: int
    ) -> None:
        self.source = source
        self.gen = source.arrivals()
        self.prev = 0.0
        self.time = time
        self.seq = seq
        #: The first resume primes the arrival generator (drawing the
        #: first arrival's randomness) without emitting — exactly what
        #: the kernel process does on its construction-time resume.
        self.primed = False
        self.live = True
        #: An inter-arrival delay drawn one step ahead (a run commit
        #: looks ahead to decide eligibility); consumed before the
        #: generator is advanced again so the rng stream never forks.
        self.pending: Optional[float] = None
        self.has_pending = False


@dataclass(slots=True)
class _DeliveryFx:
    """Folded side effects of one delivery (network + sink arrivals)."""

    intra: int = 0
    inter: int = 0
    ingress: int = 0
    egress: int = 0
    links: list[tuple[tuple[str, str], int]] = field(default_factory=list)
    sinks: list[tuple["SinkOperator", TimeSeries, LatencyRecorder]] = field(
        default_factory=list
    )

    def add_link(self, sender: str, receiver: str) -> None:
        key = (sender, receiver)
        for i, (existing, count) in enumerate(self.links):
            if existing == key:
                self.links[i] = (existing, count + 1)
                return
        self.links.append((key, 1))


@dataclass(slots=True)
class _Step:
    """One cluster completion in a cascade template.

    A *cluster* is the set of processable replicas of one PE placed on
    one host: submitted together at the parent's completion time, they
    share the host's capacity equally and finish in a single completion
    event after ``delay = cycles / (capacity / k)`` — the exact float
    expression the processor-sharing scheduler evaluates.
    """

    parent: int  # index of the emitting step, -1 for the source fire
    pe: str
    offset: float  # symbolic completion offset from the arrival (build)
    delay: float
    rate: float  # fl(capacity / k) at template-build time
    cpu: float  # fl(cycles / cycles_per_core) for this host
    sel: float
    port: int
    host: "HostScheduler"
    k: int
    members: tuple[
        tuple["OperatorReplica", ReplicaMetrics, PortCounters, bool], ...
    ]
    primary_i: int  # index of the group primary in members, or -1
    primary_credits: Optional[list[float]]
    fx: Optional[_DeliveryFx]


def _sink_records(
    fx: Optional[_DeliveryFx],
) -> tuple[tuple[dict[int, int], list[tuple[float, float]]], ...]:
    """Prefetch each sink's series buckets and latency sample list."""
    if fx is None:
        return ()
    return tuple(
        (series._buckets, latency._samples)
        for _sink, series, latency in fx.sinks
    )


class _RunLayout:
    """Flattened template arrays for the run-commit fast path.

    Only built for *runnable* templates: every selectivity <= 1 and
    every step a single-member cluster — the shape every
    :class:`~repro.core.deployment.ReplicatedDeployment` produces,
    since replicas of one PE land on distinct hosts. One cascade commit
    touches every step through attribute chains; a *run* of hundreds of
    cascades cannot afford that, so the template is decomposed once
    into parallel lists indexed by step (the single member of step
    ``i`` owns slot ``i``) that the inner loop indexes directly. The
    layout lives on the template and dies with it on epoch bumps.
    """

    __slots__ = (
        "pidx",
        "delays",
        "ks",
        "late_k",
        "late_total",
        "rates",
        "cpus",
        "sels",
        "host_slot",
        "hosts",
        "pstep",
        "step_sink_records",
        "root_sink_records",
        "m_metrics",
        "m_counters",
        "m_credlists",
        "m_ports",
        "m_overflows",
        "m_primary",
        "times",
        "emit",
    )

    def __init__(self, template: "_Template") -> None:
        steps = template.steps
        n = len(steps)
        #: Parent step index, with the source fire mapped to the
        #: sentinel slot ``n`` (``times[n]`` holds the arrival time and
        #: ``emit[n]`` is pinned True: the source always fires).
        self.pidx = [n if st.parent < 0 else st.parent for st in steps]
        self.delays = [st.delay for st in steps]
        self.ks = [st.k for st in steps]
        self.late_k = [0 if st.parent < 0 else st.k for st in steps]
        self.late_total = sum(self.late_k)
        self.rates = [st.rate for st in steps]
        self.cpus = [st.cpu for st in steps]
        self.sels = [st.sel for st in steps]
        hosts: list["HostScheduler"] = []
        host_slot: list[int] = []
        for st in steps:
            for slot, host in enumerate(hosts):
                if host is st.host:
                    host_slot.append(slot)
                    break
            else:
                host_slot.append(len(hosts))
                hosts.append(st.host)
        self.hosts = hosts
        self.host_slot = host_slot
        self.pstep = [st.primary_i >= 0 for st in steps]
        members = [st.members[0] for st in steps]
        self.m_metrics = [member[1] for member in members]
        self.m_counters = [member[2] for member in members]
        self.m_credlists = [member[0]._credits for member in members]
        self.m_ports = [st.port for st in steps]
        self.m_overflows = [member[0]._overflowed for member in members]
        self.m_primary = [member[3] for member in members]
        self.step_sink_records = [_sink_records(st.fx) for st in steps]
        self.root_sink_records = _sink_records(template.root_fx)
        self.times = [0.0] * (n + 1)
        self.emit = [False] * n + [True]


@dataclass(slots=True)
class _Template:
    """A (source, control-epoch) cascade recipe."""

    steps: list[_Step]
    root_fx: Optional[_DeliveryFx]
    source_series: TimeSeries
    span: float
    guard: float
    draws_at_t0: int  # sequence draws before the next-arrival draw
    scratch_run: list[bool]
    scratch_emit: list[bool]
    scratch_times: list[float]
    #: Run commits need every selectivity <= 1 (so one arrival can
    #: never produce two downstream tuples — the multiplicity the
    #: precheck in :meth:`BatchEngine._commit_recipe` bails on per
    #: cascade) and every step a single-member cluster.
    runnable: bool = False
    layout: Optional[_RunLayout] = None


class BatchEngine:
    """Out-of-heap event execution for one :class:`StreamPlatform`.

    The kernel grants the engine every interval between heap events (see
    ``Environment.engine``); the engine merges three streams — source
    arrival cursors, host completion slots and cancelled ghosts — and
    executes them either as micro events (real operator code) or as
    closed-form cascade commits.
    """

    def __init__(self, platform: "StreamPlatform") -> None:
        self._platform = platform
        self._env: "Environment" = platform.env
        self._network: NetworkMetrics = platform.metrics.network
        self._cursors: list[_SourceCursor] = []
        self._timers: list[EngineTimer] = []
        self._ghosts: list[tuple[float, int]] = []
        self._live_timers = 0
        self._epoch = 0
        self._templates: dict[str, tuple[int, Optional[_Template]]] = {}
        #: Execution statistics (published as ``batch.*`` gauges).
        self.stats: dict[str, int] = {
            "cascades": 0,
            "micro_events": 0,
            "bails": 0,
            "template_builds": 0,
            "runs": 0,
            "idle_crossed": 0,
        }

    # ------------------------------------------------------------------
    # Wiring (called during platform construction)
    # ------------------------------------------------------------------

    def new_timer(self) -> EngineTimer:
        """A completion-timer backend for one host scheduler."""
        timer = EngineTimer(self)
        self._timers.append(timer)
        return timer

    def register_source(self, source: "SourceOperator") -> None:
        """Adopt a source: its arrivals run through an engine cursor."""
        env = self._env
        self._cursors.append(_SourceCursor(source, env.now, env.take_seq()))

    def bump_epoch(self) -> None:
        """Invalidate cascade templates (control-plane state changed)."""
        self._epoch += 1

    def publish_stats(self, registry: "MetricsRegistry") -> None:
        """Expose execution statistics as ``batch.*`` gauges."""
        registry.gauge("batch.cascades").set(float(self.stats["cascades"]))
        registry.gauge("batch.micro.events").set(
            float(self.stats["micro_events"])
        )
        registry.gauge("batch.bails").set(float(self.stats["bails"]))
        registry.gauge("batch.template.builds").set(
            float(self.stats["template_builds"])
        )
        registry.gauge("batch.runs").set(float(self.stats["runs"]))
        registry.gauge("batch.idle.crossed").set(
            float(self.stats["idle_crossed"])
        )

    # ------------------------------------------------------------------
    # Kernel interface
    # ------------------------------------------------------------------

    def advance(
        self,
        btime: Optional[float],
        bseq: Optional[int],
        until: Optional[float],
    ) -> None:
        """Run engine events with key strictly below ``(btime, bseq)``.

        ``btime is None`` means the heap is empty (no boundary); ``until``
        additionally caps event *times* inclusively, mirroring
        ``Environment.run``.
        """
        env = self._env
        ghosts = self._ghosts
        cursors = self._cursors
        timers = self._timers
        while True:
            best_t = math.inf
            best_s = 0
            best_kind = 0  # 1 = ghost, 2 = arrival, 3 = completion
            best_cursor: Optional[_SourceCursor] = None
            best_timer: Optional[EngineTimer] = None
            if ghosts:
                best_t, best_s = ghosts[0]
                best_kind = 1
            for cursor in cursors:
                if cursor.live:
                    t = cursor.time
                    if t < best_t or (t == best_t and cursor.seq < best_s):
                        best_t, best_s = t, cursor.seq
                        best_kind, best_cursor = 2, cursor
            for timer in timers:
                slot = timer.slot
                if slot is not None:
                    t = slot.time
                    if t < best_t or (t == best_t and slot.seq < best_s):
                        best_t, best_s = t, slot.seq
                        best_kind, best_timer = 3, timer
            if best_kind == 0:
                return
            if btime is not None and (
                best_t > btime or (best_t == btime and best_s > bseq)
            ):
                return
            if until is not None and best_t > until:
                return
            if best_kind == 1:
                heapq.heappop(ghosts)
                env.engine_account(cancelled=1)
            elif best_kind == 3:
                assert best_timer is not None
                slot = best_timer.slot
                assert slot is not None
                best_timer.slot = None
                self._live_timers -= 1
                env.engine_fire(best_t)
                self.stats["micro_events"] += 1
                slot.callback()
            else:
                assert best_cursor is not None
                self._fire_arrival(best_cursor, until)

    def finish(self, btime: Optional[float], bseq: Optional[int]) -> None:
        """End-of-run ghost accounting (the lazy-purge convergence rule).

        A tuple-granular run purges cancelled events up to — but not past
        — the first *live* event left in the queue. The engine replicates
        that: every ghost below the lowest live key (heap boundary or
        engine slot) counts as cancelled; later ghosts stay uncounted.
        """
        live_t = math.inf
        live_s = 0
        for cursor in self._cursors:
            if cursor.live and (
                cursor.time < live_t
                or (cursor.time == live_t and cursor.seq < live_s)
            ):
                live_t, live_s = cursor.time, cursor.seq
        for timer in self._timers:
            slot = timer.slot
            if slot is not None and (
                slot.time < live_t
                or (slot.time == live_t and slot.seq < live_s)
            ):
                live_t, live_s = slot.time, slot.seq
        if btime is not None and bseq is not None:
            if btime < live_t or (btime == live_t and bseq < live_s):
                live_t, live_s = btime, bseq
        ghosts = self._ghosts
        count = 0
        while ghosts:
            time, seq = ghosts[0]
            if time > live_t or (time == live_t and seq > live_s):
                break
            heapq.heappop(ghosts)
            count += 1
        if count:
            self._env.engine_account(cancelled=count)

    # ------------------------------------------------------------------
    # Arrival execution
    # ------------------------------------------------------------------

    def _draw_delay(self, cursor: _SourceCursor) -> Optional[float]:
        """Advance the arrival recurrence by one step (rng draw only)."""
        try:
            arrival = next(cursor.gen)
        except StopIteration:
            return None
        delay = arrival - cursor.prev
        cursor.prev = arrival
        if delay < 0 or math.isnan(delay):
            raise SimulationError(
                f"process yielded an invalid delay: {delay!r}"
            )
        return delay

    def _next_delay(self, cursor: _SourceCursor) -> Optional[float]:
        """The next inter-arrival delay: a stashed look-ahead or a draw."""
        if cursor.has_pending:
            cursor.has_pending = False
            delay = cursor.pending
            cursor.pending = None
            return delay
        return self._draw_delay(cursor)

    def _advance_cursor(
        self, cursor: _SourceCursor, delay: Optional[float]
    ) -> None:
        if delay is None:
            cursor.live = False
            return
        env = self._env
        cursor.time = env.now + delay
        cursor.seq = env.take_seq()

    def _solo(self, cursor: _SourceCursor) -> bool:
        """True when ``cursor`` is the only live arrival stream."""
        for other in self._cursors:
            if other is not cursor and other.live:
                return False
        return True

    def _micro_fire(
        self, cursor: _SourceCursor, delay: Optional[float], drawn: bool
    ) -> None:
        env = self._env
        env.engine_fire(cursor.time)
        self.stats["micro_events"] += 1
        cursor.source.fire()
        if not drawn:
            delay = self._next_delay(cursor)
        self._advance_cursor(cursor, delay)

    def _fire_arrival(
        self, cursor: _SourceCursor, until: Optional[float]
    ) -> None:
        t0 = cursor.time
        if not cursor.primed:
            # Priming resume: draw the first arrival, emit nothing.
            cursor.primed = True
            self._env.engine_fire(t0)
            self._advance_cursor(cursor, self._draw_delay(cursor))
            return
        # No work in flight and a template built for the current control
        # epoch: every control entry point bumps the epoch, so a usable
        # template is one whose world has not changed since.
        template: Optional[_Template] = None
        if self._live_timers == 0:
            template = self._template_for(cursor.source.name)
        if template is None:
            self._micro_fire(cursor, None, drawn=False)
            return
        # Pre-draw the next arrival: the delivery path draws no
        # randomness, so doing this first leaves the rng stream intact
        # whichever path commits. (The matching *sequence* draw happens
        # only after the delivery's own draws, preserving seq order.)
        delay = self._next_delay(cursor)
        commit = (
            self._commit_run
            if template.runnable and self._solo(cursor)
            else self._commit_recipe
        )
        if commit(template, cursor, t0, delay, until):
            return
        self.stats["bails"] += 1
        self._micro_fire(cursor, delay, drawn=True)

    def _cross_idle(
        self,
        layout: _RunLayout,
        cred: list[float],
        t0: float,
        bound: float,
        draws_at_t0: int,
    ) -> tuple[bool, list[tuple[float, int]]]:
        """Fire the idle heap events in the way of the cascade at ``t0``.

        Called with the replayed sequence counter flushed into the
        kernel, when the heap head is at or before ``bound``. Heads
        before ``t0`` fire in place. Heads inside ``(t0, bound]`` fire
        with the sequence number a tuple-granular run would have reached
        by then — ``draws_at_t0`` plus the draws of every step whose
        parent completed earlier — and the kernel counter is then put
        back, so the caller commits the cascade as if they were not
        there and adds their draws afterwards.

        Returns ``(admit, fired)``: whether the cascade may commit in
        closed form, and the ``(time, draws)`` of each head fired inside
        it. A head that is live (no probe, cancelled, probe false) or
        lands exactly on the arrival or on a step completion refuses the
        cascade — equal-time ties are the exact path's to resolve. When
        that head is the successor an already-fired head scheduled
        inside the same cascade, ``fired`` is non-empty: the kernel
        clock is put back too, and the caller owes those draws to the
        tuple-granular replay (:meth:`_replay_owing`).
        """
        queue = self._env._queue
        while queue and queue[0][0] < t0:
            if not self._probe(queue[0][2]):
                return False, []
            self._fire_idle()
        if not queue or queue[0][0] > bound:
            return True, []
        # Dry pass: the cascade's event times and emit pattern, by the
        # commit loop's own float operations, on private scratch.
        n = len(cred)
        pidx = layout.pidx
        delays = layout.delays
        sels = layout.sels
        pstep = layout.pstep
        times = [0.0] * n + [t0]
        emit = [False] * n + [True]
        for i in range(n):
            parent = pidx[i]
            if emit[parent]:
                times[i] = times[parent] + delays[i]
                emit[i] = pstep[i] and int(cred[i] + sels[i]) > 0
        ran = [i for i in range(n) if emit[pidx[i]]]
        late_k = layout.late_k
        env = self._env
        base = env._sequence
        now = env._now
        paid = draws_at_t0
        fired: list[tuple[float, int]] = []
        admit = True
        while queue and queue[0][0] <= bound:
            time, _seq, handle = queue[0]
            if (
                time == t0
                or not self._probe(handle)
                or any(times[i] == time for i in ran)
            ):
                admit = False
                break
            env._sequence = before = (
                base
                + paid
                + sum(late_k[i] for i in ran if times[pidx[i]] < time)
            )
            self._fire_idle()
            draws = env._sequence - before
            paid += draws
            fired.append((time, draws))
        # Put the kernel back where the cascade starts: the caller
        # replays the draws itself, and a replay restarts the clock too.
        env._sequence = base
        if not admit:
            env._now = now
        return admit, fired

    @staticmethod
    def _probe(handle: "EventHandle") -> bool:
        """Did this heap event declare its firing idle?"""
        return (
            handle.idle is not None
            and not handle.cancelled
            and handle.idle(handle.time)
        )

    def _fire_idle(self) -> None:
        """Fire the heap head, which probed idle; a lying probe raises."""
        env = self._env
        time, _seq, handle = env._queue[0]
        epoch = self._epoch
        env.fire_head()
        if self._epoch != epoch or self._live_timers:
            raise SimulationError(
                f"{handle.callback!r} probed idle at t={time} but changed"
                " control-plane state or submitted work when it fired"
            )
        self.stats["idle_crossed"] += 1

    def _apply_fx(
        self, fx: Optional[_DeliveryFx], time: float, birth: float
    ) -> None:
        if fx is None:
            return
        net = self._network
        net.intra_host_tuples += fx.intra
        net.inter_host_tuples += fx.inter
        net.ingress_tuples += fx.ingress
        net.egress_tuples += fx.egress
        if fx.links:
            per_link = net.per_link
            for key, count in fx.links:
                per_link[key] = per_link.get(key, 0) + count
        for sink, series, latency in fx.sinks:
            sink.received += 1
            series.record(time)
            latency.record(time, time - birth)

    def _commit_recipe(
        self,
        template: _Template,
        cursor: _SourceCursor,
        t0: float,
        delay: Optional[float],
        until: Optional[float],
    ) -> bool:
        """Commit one arrival's cascade; False = bail (nothing mutated)."""
        # No foreign event — next arrival, ``until`` cap, heap head,
        # another source — may stand at or before the cascade's bound.
        bound = t0 + template.guard
        if delay is not None and bound >= t0 + delay:
            return False
        if until is not None and bound > until:
            return False
        queue = self._env._queue
        if queue and bound >= queue[0][0]:
            return False
        for other in self._cursors:
            if other is not cursor and other.live and other.time <= bound:
                return False
        steps = template.steps
        n = len(steps)
        run = template.scratch_run
        emit = template.scratch_emit
        # Pass 1 (read-only): resolve the selectivity multiplicity along
        # the primary chain. Anything other than 0 or 1 emitted tuples
        # deviates from the template's one-delivery-per-edge shape, so
        # bail to the exact path before mutating any state.
        for i in range(n):
            st = steps[i]
            parent = st.parent
            live = parent < 0 or emit[parent]
            run[i] = live
            if not live or st.primary_i < 0:
                emit[i] = False
                continue
            credits = st.primary_credits
            assert credits is not None
            produced = int(credits[st.port] + st.sel)
            if produced >= 2:
                return False
            emit[i] = produced >= 1
        # Pass 2: commit, replaying the exact float operations of the
        # tuple-granular path in event-time order.
        env = self._env
        env.engine_fire(t0)
        source = cursor.source
        source.emitted += 1
        template.source_series.record(t0)
        self._apply_fx(template.root_fx, t0, t0)
        env.bump_seq(template.draws_at_t0)
        self._advance_cursor(cursor, delay)
        times = template.scratch_times
        events = 0
        cancelled = 0
        late_draws = 0
        last_t = t0
        for i in range(n):
            if not run[i]:
                continue
            st = steps[i]
            parent = st.parent
            parent_t = t0 if parent < 0 else times[parent]
            t = parent_t + st.delay
            times[i] = t
            if parent >= 0:
                late_draws += st.k
            events += 1
            cancelled += st.k - 1
            host = st.host
            elapsed = t - parent_t
            progress = st.rate * elapsed
            host.cycles_delivered += progress * st.k
            host._last_update = t
            port = st.port
            cpu = st.cpu
            sel = st.sel
            for replica, metrics, counters, primary in st.members:
                metrics.received += 1
                counters.received += 1
                replica._overflowed[port] = False
                metrics.busy_time += cpu
                metrics.processed += 1
                counters.processed += 1
                counters.busy_time += cpu
                if primary:
                    metrics.processed_as_primary += 1
                credits = replica._credits
                value = credits[port] + sel
                produced = int(value)
                if produced:
                    credits[port] = value - produced
                    counters.emitted += produced
                else:
                    credits[port] = value
            if emit[i]:
                self._apply_fx(st.fx, t, t0)
            if t > last_t:
                last_t = t
        env.advance_clock(last_t)
        env.engine_account(processed=events, cancelled=cancelled)
        env.bump_seq(late_draws)
        self.stats["cascades"] += 1
        return True

    def _commit_run(
        self,
        template: _Template,
        cursor: _SourceCursor,
        t0: float,
        delay: Optional[float],
        until: Optional[float],
    ) -> bool:
        """Commit an unbroken *train* of cascades in one pass.

        Every arrival, the first included, is admitted by the same
        conditions before it joins the run: its cascade ends (with the
        guard margin) before the next arrival and by ``until``, and no
        heap event stands at or before that bound — unless every such
        event declared itself idle, in which case :meth:`_cross_idle`
        fires them in place and the train carries on. The first
        refusal stops the train with the look-ahead delay stashed on
        the cursor; False means the *first* arrival was refused and
        nothing was mutated.

        Float-sensitive accumulators — busy time, selectivity credits,
        processor-sharing progress, the event-time chains — are
        replayed in locals with the tuple-granular path's exact
        per-cascade operation sequence and written back once. Pure
        integer counters are *derived* at writeback instead of being
        counted in the loop: a step executed exactly when its parent
        emitted, and a primary step's delivery count equals its
        member's produced total, because runnability guarantees
        ``int(credit + sel)`` is 0 or 1 (so the per-cascade
        multiplicity precheck of :meth:`_commit_recipe` can never bail
        mid-train either).
        """
        layout = template.layout
        if layout is None:
            layout = template.layout = _RunLayout(template)
        env = self._env
        guard = template.guard
        draws_at_t0 = template.draws_at_t0
        steps = template.steps
        n = len(steps)
        pidx = layout.pidx
        delays = layout.delays
        ks = layout.ks
        late_k = layout.late_k
        late_total = layout.late_total
        rates = layout.rates
        cpus = layout.cpus
        sels = layout.sels
        host_slot = layout.host_slot
        pstep = layout.pstep
        sink_recs = layout.step_sink_records
        root_recs = layout.root_sink_records
        emit = layout.emit  # emit[n] is pinned True (the source fire)
        times = layout.times  # times[n] carries the arrival time
        src_buckets = template.source_series._buckets
        gen = cursor.gen
        # Local replay state: loaded once, written back once. The seq
        # counter and the arrival recurrence are replayed locally too —
        # nothing else can touch them while the engine holds the
        # interval (the only heap callbacks that run inside an
        # ``advance`` grant are idle ones, fired with ``seq`` flushed).
        queue = env._queue
        head = queue[0][0] if queue else math.inf
        seq = env._sequence
        prev = cursor.prev
        bm = [m.busy_time for m in layout.m_metrics]
        bc = [c.busy_time for c in layout.m_counters]
        cred = [
            creds[port]
            for creds, port in zip(layout.m_credlists, layout.m_ports)
        ]
        emitted = [0] * n
        hc = [h.cycles_delivered for h in layout.hosts]
        committed = 0
        crossed = 0
        owed: list[tuple[float, int]] = []
        while True:
            bound = t0 + guard
            admit = delay is None or bound < t0 + delay
            if until is not None and bound > until:
                admit = False
            if admit and head <= bound:
                env._sequence = seq
                admit, owed = self._cross_idle(
                    layout,
                    cred,
                    t0,
                    bound,
                    draws_at_t0 + (delay is not None),
                )
                seq = env._sequence
                head = queue[0][0] if queue else math.inf
                if admit:
                    # Drawn inside the cascade: after its draws at t0.
                    crossed = sum(draws for _time, draws in owed)
                    owed = []
            if not admit:
                if committed or owed:
                    cursor.time = t0
                    cursor.pending = delay
                    cursor.has_pending = True
                break
            committed += 1
            bucket = int(t0)
            src_buckets[bucket] = src_buckets.get(bucket, 0) + 1
            for records, samples in root_recs:
                records[bucket] = records.get(bucket, 0) + 1
                samples.append((t0, t0 - t0))
            seq += draws_at_t0
            if delay is None:
                cursor.live = False
            else:
                cursor.seq = seq
                seq += 1
            times[n] = t0
            late = late_total
            for i in range(n):
                parent = pidx[i]
                if not emit[parent]:
                    emit[i] = False
                    late -= late_k[i]
                    continue
                parent_t = times[parent]
                t = parent_t + delays[i]
                times[i] = t
                slot = host_slot[i]
                hc[slot] += rates[i] * (t - parent_t) * ks[i]
                cpu = cpus[i]
                bm[i] += cpu
                bc[i] += cpu
                value = cred[i] + sels[i]
                produced = int(value)
                if produced:
                    cred[i] = value - produced
                    emitted[i] += produced
                    if pstep[i]:
                        emit[i] = True
                        step_recs = sink_recs[i]
                        if step_recs:
                            t_bucket = int(t)
                            for records, samples in step_recs:
                                records[t_bucket] = (
                                    records.get(t_bucket, 0) + 1
                                )
                                samples.append((t, t - t0))
                    else:
                        emit[i] = False
                else:
                    cred[i] = value
                    emit[i] = False
            seq += late
            if crossed:
                seq += crossed
                crossed = 0
            if delay is None:
                break
            t0 = t0 + delay
            try:
                arrival = next(gen)
            except StopIteration:
                delay = None
            else:
                delay = arrival - prev
                prev = arrival
                if delay < 0 or delay != delay:  # NaN-safe _draw_delay check
                    raise SimulationError(
                        f"process yielded an invalid delay: {delay!r}"
                    )
        if not committed:
            if not owed:
                return False
            self._replay_owing(cursor, owed, until)
            return True
        # ------------------------------------------------------------------
        # Writeback: derived integer counters, then float replay state.
        # ------------------------------------------------------------------
        cursor.prev = prev
        env._sequence = seq
        emit_counts = [emitted[i] if pstep[i] else 0 for i in range(n)]
        exec_counts = [
            committed if pidx[i] == n else emit_counts[pidx[i]]
            for i in range(n)
        ]
        net = self._network
        per_link = net.per_link
        m_metrics = layout.m_metrics
        m_counters = layout.m_counters
        m_primary = layout.m_primary
        m_overflows = layout.m_overflows
        m_ports = layout.m_ports
        hosts = layout.hosts
        hl = [h._last_update for h in hosts]
        total_exec = 0
        cancelled = 0
        for i in range(n):
            count = exec_counts[i]
            metrics = m_metrics[i]
            counters = m_counters[i]
            if count:
                total_exec += count
                cancelled += count * (ks[i] - 1)
                metrics.received += count
                metrics.processed += count
                counters.received += count
                counters.processed += count
                m_overflows[i][m_ports[i]] = False
                if m_primary[i]:
                    metrics.processed_as_primary += count
                slot = host_slot[i]
                if times[i] > hl[slot]:
                    hl[slot] = times[i]
            metrics.busy_time = bm[i]
            counters.busy_time = bc[i]
            layout.m_credlists[i][m_ports[i]] = cred[i]
            if emitted[i]:
                counters.emitted += emitted[i]
            ec = emit_counts[i]
            fx = steps[i].fx
            if ec and fx is not None:
                net.intra_host_tuples += fx.intra * ec
                net.inter_host_tuples += fx.inter * ec
                net.ingress_tuples += fx.ingress * ec
                net.egress_tuples += fx.egress * ec
                for key, link_count in fx.links:
                    per_link[key] = per_link.get(key, 0) + link_count * ec
                for sink, _series, _latency in fx.sinks:
                    sink.received += ec
        root_fx = template.root_fx
        if root_fx is not None:
            net.intra_host_tuples += root_fx.intra * committed
            net.inter_host_tuples += root_fx.inter * committed
            net.ingress_tuples += root_fx.ingress * committed
            net.egress_tuples += root_fx.egress * committed
            for key, link_count in root_fx.links:
                per_link[key] = per_link.get(key, 0) + link_count * committed
            for sink, _series, _latency in root_fx.sinks:
                sink.received += committed
        cursor.source.emitted += committed
        for slot, host in enumerate(hosts):
            host.cycles_delivered = hc[slot]
            host._last_update = hl[slot]
        # The clock lands on the last committed event: the final
        # cascade's ``emit`` / ``times`` state is still intact, and run
        # eligibility makes each arrival later than every event of the
        # cascade before it, so the global maximum lives there — unless
        # an idle event fired after it (the kernel clock is on that).
        last_t = max(times[n], env.now)
        for i in range(n):
            if emit[pidx[i]] and times[i] > last_t:
                last_t = times[i]
        env.advance_clock(last_t)
        env.engine_account(
            processed=committed + total_exec, cancelled=cancelled
        )
        self.stats["cascades"] += committed
        self.stats["runs"] += 1
        if owed:
            self._replay_owing(cursor, owed, until)
        return True

    def _replay_owing(
        self,
        cursor: _SourceCursor,
        owed: list[tuple[float, int]],
        until: Optional[float],
    ) -> None:
        """Replay ``cursor``'s arrival tuple-granular around the idle
        events :meth:`_cross_idle` already fired inside its cascade.

        Each fired with the sequence number the replay reaches just
        before its time, so the replay runs up to that time, skips the
        numbers the firing drew, and goes on.
        """
        self.stats["bails"] += 1
        self._micro_fire(cursor, None, drawn=False)
        for time, draws in owed:
            self.advance(time, -1, until)
            self._env.bump_seq(draws)

    # ------------------------------------------------------------------
    # Template construction
    # ------------------------------------------------------------------

    def _template_for(self, source_name: str) -> Optional[_Template]:
        entry = self._templates.get(source_name)
        if entry is not None and entry[0] == self._epoch:
            return entry[1]
        template = self._build_template(source_name)
        self._templates[source_name] = (self._epoch, template)
        self.stats["template_builds"] += 1
        return template

    def _build_template(self, source_name: str) -> Optional[_Template]:
        """Symbolically execute one source tuple's cascade, or None.

        Runs a miniature event-list simulation at offsets from the
        arrival time with every selectivity multiplicity forced to one.
        Any structure whose per-tuple behaviour could deviate from the
        recorded shape — fan-in, overlapping processor-sharing episodes,
        tuple tracing — rejects the template, which simply means those
        arrivals run through the exact micro path.
        """
        platform = self._platform
        if platform.telemetry.tuple_tracer is not None:
            return None
        graph = platform._graph
        groups = platform._groups
        sinks = platform._sinks
        hosts = platform._host_schedulers
        steps: list[_Step] = []
        work: list[tuple[float, int, int]] = [(0.0, 0, -1)]
        order = 1
        visited: set[str] = set()
        busy: dict[str, tuple[float, int]] = {}
        root_fx: Optional[_DeliveryFx] = None
        while work:
            offset, _, idx = heapq.heappop(work)
            if idx < 0:
                comp = source_name
                sender_host = ""
            else:
                comp = steps[idx].pe
                sender_host = steps[idx].host.name
            fx = _DeliveryFx()
            have_fx = False
            for succ in graph.succ(comp):
                group = groups.get(succ)
                if group is None:
                    sink = sinks[succ]
                    if idx < 0:
                        fx.ingress += 1
                    else:
                        fx.egress += 1
                    fx.sinks.append((sink, sink.series, sink.latency))
                    have_fx = True
                    continue
                if succ in visited:
                    return None  # fan-in: multiplicity is per-tuple
                visited.add(succ)
                members = group.members
                if not members:
                    continue
                have_fx = True
                if idx < 0:
                    fx.ingress += len(members)
                else:
                    for member in members:
                        target_host = member.host.name
                        if sender_host == target_host:
                            fx.intra += 1
                        else:
                            fx.inter += 1
                            fx.add_link(sender_host, target_host)
                sample = members[0]
                port = sample._port_index[comp]
                spec = sample._ports[port]
                clusters: dict[str, list["OperatorReplica"]] = {}
                cluster_order: list[str] = []
                for member in members:
                    if member.processable:
                        bucket = clusters.get(member.host.name)
                        if bucket is None:
                            clusters[member.host.name] = bucket = []
                            cluster_order.append(member.host.name)
                        bucket.append(member)
                primary = group.primary
                forwards = primary is not None and primary.processable
                for host_name in cluster_order:
                    cluster = clusters[host_name]
                    host = hosts[host_name]
                    k = len(cluster)
                    rate = host.capacity / k
                    delay = max(spec.cycles, 0.0) / rate
                    end = offset + delay
                    previous = busy.get(host_name)
                    if previous is not None:
                        prev_end, prev_idx = previous
                        if offset == prev_end and prev_idx <= idx:
                            # Exact hand-off: the previous occupant's
                            # completion fires first (``prev_idx <= idx``
                            # means its completion sequence number is
                            # lower, and the scheduler removes finished
                            # jobs before callbacks run), so the host is
                            # deterministically idle at this submit.
                            pass
                        elif offset > prev_end + _GUARD_MARGIN:
                            pass  # strictly sequential reuse
                        else:
                            return None  # overlapping episodes: real PS
                    new_idx = len(steps)
                    busy[host_name] = (end, new_idx)
                    primary_i = -1
                    if (
                        forwards
                        and primary is not None
                        and primary.host.name == host_name
                    ):
                        primary_i = cluster.index(primary)
                    step = _Step(
                        parent=idx,
                        pe=succ,
                        offset=end,
                        delay=delay,
                        rate=rate,
                        cpu=host.cpu_seconds(spec.cycles),
                        sel=spec.selectivity,
                        port=port,
                        host=host,
                        k=k,
                        members=tuple(
                            (
                                member,
                                member._metrics,
                                member._metrics.port(comp),
                                member is primary,
                            )
                            for member in cluster
                        ),
                        primary_i=primary_i,
                        primary_credits=(
                            primary._credits
                            if primary_i >= 0 and primary is not None
                            else None
                        ),
                        fx=None,
                    )
                    steps.append(step)
                    if primary_i >= 0:
                        heapq.heappush(work, (end, order, new_idx))
                        order += 1
                if len(steps) > _MAX_STEPS:
                    return None
            delivery_fx = fx if have_fx else None
            if idx < 0:
                root_fx = delivery_fx
            else:
                steps[idx].fx = delivery_fx
        span = max((st.offset for st in steps), default=0.0)
        n = len(steps)
        return _Template(
            steps=steps,
            root_fx=root_fx,
            source_series=platform.metrics.source_series[source_name],
            span=span,
            guard=span + _GUARD_MARGIN,
            draws_at_t0=sum(st.k for st in steps if st.parent < 0),
            scratch_run=[False] * n,
            scratch_emit=[False] * n,
            scratch_times=[0.0] * n,
            runnable=all(
                st.sel <= 1.0 and len(st.members) == 1 for st in steps
            ),
        )
