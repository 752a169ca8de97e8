"""Batched execution engine: closed-form trains on top of the kernel.

The tuple-granular kernel spends ~15 heap events per source tuple
(submits, processor-sharing reschedules, completions). On the fleet
data plane — thousands of strategy-less chain tenants — that arithmetic
dominates the run. This module removes it *without changing a single
observable byte*: between live heap events the platform's behaviour
over a quiescent stretch is a closed-form function of the arrivals in
it, so the engine advances replica counters, processor-sharing
accounting and selectivity credits directly instead of replaying each
tuple through the event heap.

The engine owns exactly one thing the kernel does not: the **source
arrival cursors**. Everything else — host completions, control actions,
periodic ticks — is an ordinary heap event, scheduled, cancelled, purged
and counted by :class:`~repro.sim.kernel.Environment`. Before each heap
event the kernel lets the engine fire the arrivals that precede it
(:meth:`BatchEngine.advance`), and each arrival takes one of two paths:

* **train** — the arrival's source is the only live cursor, no job is in
  progress on any host, and the source has a *template* for the current
  control epoch: the full downstream effect of one tuple as a fixed
  cascade of single-job service steps with float-exact delays. An
  unbroken run of such arrivals commits in one pass over the flattened
  template (:meth:`BatchEngine._commit_run`), replaying the exact
  floating-point operations the tuple-granular path would have
  performed and bulk-advancing the kernel's event and sequence counters,
  so heap tie-breaking and the ``sim.run.end`` accounting stay
  identical. Per arrival it folds only what depends on arrival order
  (event times, host cycles, a primary's credit); busy time, secondary
  credits and the integer counters follow from per-step run counts and
  fold once when the train ends. ``stats["cascades"]`` counts the
  arrivals committed this way, ``stats["runs"]`` the trains. A long
  quiet stretch of a train (many arrivals before the next heap event
  or chain firing) commits as numpy arrays instead of arrival by
  arrival, with the same floats (:meth:`BatchEngine._commit_segment`;
  ``stats["array_arrivals"]``); short ones keep the per-arrival loop.
* **kernel** — anything else: :meth:`SourceOperator.fire` runs the real
  operator code, whose completions go on the heap like in a
  tuple-granular run, because from there on it *is* one
  (``stats["micro_events"]`` counts these arrivals). This is the path
  while work is in flight across a failure, switch or chaos action,
  where the invariant checker and failover spans need tuple fidelity.

A template exists only when per-tuple dynamics cannot deviate from it:
no tuple tracing, no PE reachable along two paths, every selectivity
≤ 1, no overlapping processor-sharing episodes on a host (replicas of
one PE sit on distinct hosts, so each step is a lone job), and a primary
whose identity is stable for the control epoch. That is the shape of the
fleet and elastic data planes — single source, fan-in free; generated
LAAR DAG bundles (several sources, fan-in, selectivity > 1) typically
lack it and run on the kernel path throughout. Control-plane activity
(crashes, recoveries, activation switches, host degradation, migration
attach/detach) bumps the platform's ``control_epoch``, invalidating the
templates; the next arrival that finds no work in flight rebuilds them
from the deployment as it then stands. The :class:`FallbackTracker`
window the same action opens is a marker in the event log (both modes
emit it), not an execution mode: eligibility depends on platform state,
never on elapsed time.

A chain (see :meth:`repro.sim.kernel.Environment.recur`) does not end
a train: the train takes the chains' firings off the heap, and while a
firing's probe says idle it applies the firing as a step at its time,
draws the one sequence number its reschedule would have drawn there,
and carries on; each chain goes back on the heap once, when the train
ends (``stats["ticks_stepped"]``). Periodic control ticks that decide
to change nothing are the case it exists for.

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
from functools import reduce
from itertools import chain, islice
from operator import add
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.dsps.metrics import LatencyRecorder, NetworkMetrics, TimeSeries
from repro.errors import SimulationError
from repro.sim.kernel import Chain

if TYPE_CHECKING:
    from repro.dsps.endpoints import SinkOperator, SourceOperator
    from repro.dsps.hosts import HostScheduler
    from repro.dsps.operators import OperatorReplica
    from repro.dsps.platform import StreamPlatform
    from repro.obs.events import EventLog
    from repro.sim import Environment

__all__ = ["BatchEngine", "FallbackTracker"]

#: Isolation margin (seconds) added to a cascade's symbolic span before
#: comparing against foreign event times. Committed cascade times are
#: floating-point chains anchored at the arrival time; the symbolic
#: offsets used for eligibility can differ from them by a few ulp, so
#: any foreign event within the margin conservatively forces the kernel
#: path instead of trusting the comparison.
_GUARD_MARGIN = 1e-6

#: Upper bound on cascade size; larger graphs run on the kernel path.
_MAX_STEPS = 128

#: A train commits the quiet stretch ahead of an arrival as arrays
#: (:meth:`BatchEngine._commit_segment`) when more than this many of
#: its current inter-arrival gaps fit before the next heap head, chain
#: firing or ``until``; shorter stretches take the per-arrival loop. A
#: segment pays ~210 us fixed and ~0.6 us per arrival against ~3.4 us
#: per arrival in the loop: the measured break-even (docs/performance.md
#: § "Long quiet stretches commit as arrays").
_ARRAY_STRETCH = 75

#: Most arrivals one array segment draws ahead and commits.
_MAX_SEGMENT = 1024


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


class _SourceCursor:
    """Engine-side replacement for one source's self-rescheduling
    arrival callback (its start event and its chain of arrivals)."""

    __slots__ = (
        "source",
        "gen",
        "prev",
        "time",
        "seq",
        "primed",
        "live",
        "pending",
    )

    def __init__(
        self, source: "SourceOperator", time: float, seq: int
    ) -> None:
        self.source = source
        self.gen = source.arrivals()
        self.prev = 0.0
        self.time = time
        self.seq = seq
        #: The first firing primes the arrival generator (drawing the
        #: first arrival's randomness) without emitting — exactly what
        #: the source's start event does in a tuple-granular run.
        self.primed = False
        self.live = True
        #: Inter-arrival delays drawn ahead (a train looks one ahead to
        #: decide eligibility, an array segment its whole stretch);
        #: consumed before the generator is advanced again so the rng
        #: stream never forks. An end-of-stream None, if drawn, is last.
        self.pending: list[Optional[float]] = []


@dataclass(slots=True)
class _DeliveryFx:
    """Folded side effects of one delivery (network + sink arrivals)."""

    intra: int = 0
    inter: int = 0
    sinks: list[tuple["SinkOperator", TimeSeries, LatencyRecorder]] = field(
        default_factory=list
    )


@dataclass(slots=True)
class _Step:
    """One replica serving the tuple in a cascade template.

    Submitted at its parent's completion time to a host with nothing
    else in progress, the job finishes ``delay = cycles / capacity``
    later — the exact float expression the processor-sharing scheduler
    evaluates for a lone job.
    """

    parent: int  # index of the emitting step, -1 for the source fire
    pe: str
    end: float  # symbolic completion offset from the arrival (build)
    delay: float
    cpu: float  # fl(cycles / cycles_per_core) for this host
    sel: float
    port: int
    replica: "OperatorReplica"
    primary: bool  # the group primary: only its output travels on
    fx: Optional[_DeliveryFx] = None


#: A chain's next firing inside a train, keyed like a heap entry.
_Firing = tuple[float, int, Chain]

#: Per sink: its series buckets, arrival-time and latency columns.
_Records = tuple[tuple[dict[int, int], list[float], list[float]], ...]

#: One step's constants as the train loop unpacks them: parent index
#: (the source fire is the sentinel ``n``: ``times[n]`` holds the
#: arrival time and ``emit[n]`` is pinned True), the sequence number it
#: draws after the arrival (1, or 0 for the source's own successors,
#: whose completions are drawn at the arrival), delay, host slot, host
#: capacity, primary flag, selectivity and its sinks' records.
_Plan = tuple[int, int, float, int, float, bool, float, _Records]


def _sink_records(fx: Optional[_DeliveryFx]) -> _Records:
    """Prefetch each sink's series buckets and latency columns."""
    if fx is None:
        return ()
    return tuple(
        (series._buckets, *latency.sample_buffer())
        for _sink, series, latency in fx.sinks
    )


class _Template:
    """A (source, control-epoch) cascade, flattened for the train loop.

    One cascade touches every step; a *train* of hundreds of cascades
    cannot afford attribute chains, so each step's constants are packed
    once into a ``_Plan`` tuple the inner loop unpacks. The template
    dies with its epoch.
    """

    __slots__ = (
        "steps",
        "root_fx",
        "source_series",
        "guard",
        "draws_at_t0",
        "plan",
        "twins",
        "hosts",
        "root_sink_records",
        "times",
        "emit",
        "_columns",
    )

    def __init__(
        self,
        steps: list[_Step],
        root_fx: Optional[_DeliveryFx],
        source_series: TimeSeries,
    ) -> None:
        n = len(steps)
        self.steps = steps
        self.root_fx = root_fx
        self.source_series = source_series
        #: No foreign event may stand within ``guard`` of an arrival
        #: whose cascade commits in closed form.
        self.guard = max((st.end for st in steps), default=0.0) + _GUARD_MARGIN
        hosts = list(dict.fromkeys(st.replica.host for st in steps))
        self.hosts: list["HostScheduler"] = hosts
        self.plan: tuple[_Plan, ...] = tuple(
            (
                n if st.parent < 0 else st.parent,
                int(st.parent >= 0),
                st.delay,
                hosts.index(st.replica.host),
                st.replica.host.capacity,
                st.primary,
                st.sel,
                _sink_records(st.fx),
            )
            for st in steps
        )
        self.draws_at_t0 = n - sum(entry[1] for entry in self.plan)
        #: For each step, the primary step of its PE (-1 when the group
        #: has no processable primary): a secondary runs exactly where
        #: that twin runs, so its credit fold is the twin's whenever the
        #: two credits were equal at the start of the train.
        primary_of = {st.pe: i for i, st in enumerate(steps) if st.primary}
        self.twins = [primary_of.get(st.pe, -1) for st in steps]
        self.root_sink_records = _sink_records(root_fx)
        self.times = [0.0] * (n + 1)
        self.emit = [False] * n + [True]
        self._columns: Optional[_Columns] = None

    def columns(self) -> "_Columns":
        """The plan as numpy columns, built on the first array segment."""
        if self._columns is None:
            self._columns = _Columns(self.plan, len(self.hosts))
        return self._columns


class _Columns:
    """A template's plan as the arrays an array segment indexes with."""

    __slots__ = (
        "parents",
        "rates",
        "steps",
        "primaries",
        "late",
        "hosts",
        "rows",
    )

    def __init__(self, plan: tuple[_Plan, ...], n_hosts: int) -> None:
        n = len(plan)
        self.rows = np.arange(n)
        self.parents = np.array([entry[0] for entry in plan], dtype=np.intp)
        self.rates = np.array([entry[4] for entry in plan]).reshape(n, 1)
        #: (step, parent, delay) in plan order, a topological order.
        self.steps = [(i, entry[0], entry[2]) for i, entry in enumerate(plan)]
        #: (step, parent, selectivity, sink records) of each primary.
        self.primaries = [
            (i, entry[0], entry[6], entry[7])
            for i, entry in enumerate(plan)
            if entry[5]
        ]
        #: Steps whose completion draws its sequence number late.
        self.late = np.array(
            [i for i, entry in enumerate(plan) if entry[1]], dtype=np.intp
        )
        #: Each host's steps in plan order, padded with the all-zero
        #: row ``n`` of the segment's increment matrix.
        rows = [
            [i for i, entry in enumerate(plan) if entry[3] == slot]
            for slot in range(n_hosts)
        ]
        width = max(map(len, rows), default=0)
        self.hosts = np.array(
            [row + [n] * (width - len(row)) for row in rows], dtype=np.intp
        ).reshape(n_hosts, width)


class BatchEngine:
    """Closed-form arrival execution for one :class:`StreamPlatform`.

    The engine owns the source-arrival cursors and nothing else: host
    completions, control actions and ticks are ordinary kernel heap
    events. The kernel hands over before each heap event (see
    ``Environment.engine``); the engine fires the arrivals that come
    first, each either as a closed-form train or through the real
    operator code.
    """

    def __init__(self, platform: "StreamPlatform") -> None:
        self._platform = platform
        self._env: "Environment" = platform.env
        self._network: NetworkMetrics = platform.metrics.network
        self._cursors: list[_SourceCursor] = []
        self._templates: dict[str, tuple[int, Optional[_Template]]] = {}
        #: Execution statistics; ``micro_events`` counts arrivals fired
        #: tuple-granular.
        self.stats: dict[str, int] = {
            "cascades": 0,
            "micro_events": 0,
            "bails": 0,
            "template_builds": 0,
            "runs": 0,
            "ticks_stepped": 0,
            "array_arrivals": 0,
        }

    # ------------------------------------------------------------------
    # Wiring (called during platform construction)
    # ------------------------------------------------------------------

    def register_source(self, source: "SourceOperator") -> None:
        """Adopt a source: its arrivals run through an engine cursor."""
        env = self._env
        self._cursors.append(_SourceCursor(source, env.now, env.take_seq()))

    # ------------------------------------------------------------------
    # Kernel interface
    # ------------------------------------------------------------------

    def advance(self, until: Optional[float]) -> None:
        """Fire every arrival that precedes the first live heap event.

        ``until`` caps arrival *times* inclusively, mirroring
        ``Environment.run``. Cancelled heap heads are purged on the way
        by the tuple-granular rule — a cancelled event is dropped and
        counted once it is the lowest key outstanding — which, arrivals
        being heap events there, means: only while no live cursor
        precedes it.
        """
        env = self._env
        queue = env._queue
        cursors = self._cursors
        while True:
            first: Optional[_SourceCursor] = None
            for cursor in cursors:
                if cursor.live and (
                    first is None
                    or (cursor.time, cursor.seq) < (first.time, first.seq)
                ):
                    first = cursor
            if first is None:
                env._purge_cancelled()
                return
            # Sequence numbers are unique, so a heap entry never ties
            # with the cursor's key and the handle is never compared.
            key = (first.time, first.seq)
            while queue and queue[0] < key:
                if not queue[0][2].cancelled:
                    return
                heapq.heappop(queue)
                env.engine_account(cancelled=1)
            if until is not None and first.time > until:
                return
            self._fire_arrival(first, until)

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
        if not delay >= 0:
            raise cursor.source.step_back(delay)
        return delay

    def _next_delay(self, cursor: _SourceCursor) -> Optional[float]:
        """The next inter-arrival delay: a stashed look-ahead or a draw."""
        if cursor.pending:
            return cursor.pending.pop(0)
        return self._draw_delay(cursor)

    @staticmethod
    def _draw_ahead(cursor: _SourceCursor, prev: float, count: int) -> float:
        """Stash the next ``count`` delays on ``cursor`` (then None if
        the stream ends first); returns the last arrival drawn.

        The same generator steps as ``count`` calls of
        :meth:`_draw_delay`, and the same gaps: each arrival minus its
        predecessor, as ``arrival - prev``.
        """
        arrivals = np.fromiter(islice(cursor.gen, count), float)
        if arrivals.size:
            gaps = np.empty_like(arrivals)
            gaps[0] = arrivals[0] - prev
            np.subtract(arrivals[1:], arrivals[:-1], out=gaps[1:])
            valid = gaps >= 0.0  # False on a negative gap or NaN
            if not valid.all():
                raise cursor.source.step_back(
                    gaps[valid.argmin()].item()
                )
            cursor.pending += gaps.tolist()
            prev = arrivals[-1].item()
        if arrivals.size < count:
            cursor.pending.append(None)
        return prev

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

    def _in_flight(self) -> bool:
        """True while any host is serving a job: its completion is a
        live heap event whose effects no closed form accounts for."""
        for host in self._platform._host_schedulers.values():
            if host._jobs:
                return True
        return False

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
            # The start event: draw the first arrival, emit nothing.
            cursor.primed = True
            self._env.engine_fire(t0)
            self._advance_cursor(cursor, self._draw_delay(cursor))
            return
        # A train needs the stream to itself, no work in flight and a
        # template built for the current control epoch: every control
        # entry point bumps the epoch, so a usable template is one whose
        # world has not changed since.
        template: Optional[_Template] = None
        if self._solo(cursor) and not self._in_flight():
            template = self._template_for(cursor.source.name)
        if template is None:
            self._micro_fire(cursor, None, drawn=False)
            return
        # Pre-draw the next arrival: the delivery path draws no
        # randomness, so doing this first leaves the rng stream intact
        # whichever path commits. (The matching *sequence* draw happens
        # only after the delivery's own draws, preserving seq order.)
        delay = self._next_delay(cursor)
        if self._commit_run(template, cursor, t0, delay, until):
            return
        self.stats["bails"] += 1
        self._micro_fire(cursor, delay, drawn=True)

    def _take_chains(self) -> list[_Firing]:
        """Take the chain firings at the head of the heap off it.

        They come off in ``(time, seq)`` order, so the list is a heap;
        :meth:`_put_back` returns every chain still running when the
        train ends. Nothing else touches the heap inside a train.
        """
        queue = self._env._queue
        chains: list[_Firing] = []
        while queue and type(queue[0][2].callback) is Chain:
            time, seq, handle = heapq.heappop(queue)
            chains.append((time, seq, handle.callback))
        return chains

    def _put_back(self, chains: list[_Firing]) -> None:
        """One heap entry per chain: its next firing."""
        env = self._env
        for time, seq, chain in chains:
            env.push_firing(time, seq, chain)

    def _cross(
        self,
        template: _Template,
        cred: list[float],
        t0: float,
        bound: float,
        chains: list[_Firing],
        seq: int,
        paid: int,
    ) -> tuple[bool, int, int, float, list[float]]:
        """Step the chain firings due by ``bound``, the cascade at
        ``t0``'s, while their probes say idle.

        Called when the first is due, with ``seq`` the counter before
        the arrival, which itself draws ``paid`` numbers. A firing
        before ``t0`` lies between two cascades, where nothing else
        draws, so it draws the next number. One inside ``(t0, bound]``
        draws the number a tuple-granular run would have reached by
        then: the arrival's, plus those of every step whose parent
        completed earlier, plus the firings before it inside.

        Returns ``(admit, seq, count, last, inside)``: whether the
        cascade may commit in closed form, the counter after the
        firings before ``t0``, how many firings were stepped, the
        latest the train keeps and the times of those stepped inside
        that drew a number (the caller adds them after the cascade's
        own draws). A busy firing, or one landing exactly on the
        arrival or on a step completion, refuses the cascade: equal-time
        ties are the exact path's to resolve. A step reveals its
        chain's next firing only by running, so that refusal can come
        after firings inside were stepped; then the caller replays the
        arrival around them (:meth:`_replay_owing`).
        """
        env = self._env
        platform = self._platform
        epoch = platform.control_epoch
        drawn = env._sequence
        count = 0
        before = last = -math.inf  # the latest before t0, and of all
        inside: list[float] = []
        ran: Optional[list[tuple[float, float, int]]] = None
        while chains and chains[0][0] <= bound:
            time, _, chain = chains[0]
            if time < t0:
                number = seq
            else:
                if ran is None:
                    if time == t0:
                        break
                    ran = self._dry_pass(template, cred, t0)
                if any(end == time for _, end, _ in ran):
                    break
                number = (
                    seq
                    + paid
                    + sum(late for start, _, late in ran if start < time)
                    + len(inside)
                )
            if not chain.idle(time):
                break
            after = chain.step(time)
            if platform.control_epoch != epoch or env._sequence != drawn:
                raise SimulationError(
                    f"{chain.step!r} probed idle at t={time} but changed"
                    " control-plane state or submitted work when it"
                    " stepped"
                )
            if after is None:
                heapq.heappop(chains)
            else:
                heapq.heapreplace(chains, (time + after, number, chain))
                if time < t0:
                    seq += 1
                else:
                    inside.append(time)
            if time < t0:
                before = time
            count += 1
            last = time
        else:
            return True, seq, count, last, inside
        return False, seq, count, before, inside

    @staticmethod
    def _dry_pass(
        template: _Template, cred: list[float], t0: float
    ) -> list[tuple[float, float, int]]:
        """The cascade at ``t0`` by the commit loop's own float
        operations, on private scratch: ``(parent time, own time, late
        draw)`` of each step that runs."""
        n = len(cred)
        times = [0.0] * n + [t0]
        emit = [False] * n + [True]
        ran: list[tuple[float, float, int]] = []
        for i, (parent, late, delay, _, _, primary, sel, _) in enumerate(
            template.plan
        ):
            if emit[parent]:
                times[i] = times[parent] + delay
                emit[i] = primary and cred[i] + sel >= 1.0
                ran.append((times[parent], times[i], late))
        return ran

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
        heap event stands at or before that bound — except the firings
        of chains (:meth:`repro.sim.kernel.Environment.recur`), which
        the train takes off the heap when it starts and steps itself
        while their probes say idle (:meth:`_cross`, for the firings
        due by the bound). The first refusal stops the train with the
        look-ahead delay stashed on the cursor, and every chain goes
        back on the heap at its next firing; False means the *first*
        arrival was refused and nothing was mutated but chain firings
        that stopped their chains inside its cascade.

        Float-sensitive accumulators are replayed in locals with the
        tuple-granular path's exact operations, and the loop keeps only
        those that depend on arrival order: event times, the hosts'
        processor-sharing progress and a primary's credit, which decides
        whether the cascade goes on (``credit + sel >= 1.0``: credits
        stay below 1 and template selectivities at most 1, so that is
        ``int(credit + sel)``). The rest is fixed by counts known when
        the train ends and folds at writeback: a step ran as often as
        its parent emitted; busy time gains ``cpu`` once per run, added
        left to right by ``reduce`` (``count * cpu`` and ``sum()`` round
        differently); a secondary runs where its primary twin runs and
        its credit step is a function of the credit alone, so it ends
        with the twin's credit and emitted count when the two started
        equal and is replayed ``count`` times otherwise.

        An admitted arrival with no chain firing due by its bound that
        starts a long quiet stretch (more than ``_ARRAY_STRETCH`` of
        its gaps before the heap head, the next chain firing or
        ``until``) hands the stretch to :meth:`_commit_segment`, which
        commits the same folds as arrays; the arrival after it comes
        back through the checks above. A segment steps no chain: on
        the elastic data plane, the one workload with chains, a firing
        every 0.25 s leaves no stretch that long.
        """
        env = self._env
        guard = template.guard
        draws_at_t0 = template.draws_at_t0
        steps = template.steps
        n = len(steps)
        plan = template.plan
        late_total = n - draws_at_t0
        root_recs = template.root_sink_records
        emit = template.emit  # emit[n] is pinned True (the source fire)
        times = template.times  # times[n] carries the arrival time
        src_buckets = template.source_series._buckets
        gen = cursor.gen
        pending = cursor.pending
        stretch = _ARRAY_STRETCH
        # Local replay state: loaded once, written back once. The seq
        # counter and the arrival recurrence are replayed locally too —
        # nothing else can touch them inside a train (a chain's step
        # draws nothing: its next firing's number is drawn here).
        chains = self._take_chains()
        queue = env._queue
        head = queue[0][0] if queue else math.inf
        tick = chains[0][0] if chains else math.inf
        seq = env._sequence
        prev = cursor.prev
        start = [st.replica._credits[st.port] for st in steps]
        cred = start.copy()  # a secondary's entry stays its start credit
        emitted = [0] * n  # primaries only
        hc = [h.cycles_delivered for h in template.hosts]
        committed = 0
        ticks = 0  # chain firings stepped
        last_tick = -math.inf  # the latest of them the train keeps
        inside: list[float] = []
        owed: list[float] = []
        while True:
            bound = t0 + guard
            admit = (
                (delay is None or bound < t0 + delay)
                and (until is None or bound <= until)
                and head > bound
            )
            if admit and tick <= bound:
                admit, seq, count, last, inside = self._cross(
                    template,
                    cred,
                    t0,
                    bound,
                    chains,
                    seq,
                    draws_at_t0 + (delay is not None),
                )
                ticks += count
                last_tick = max(last_tick, last)
                if not admit:
                    owed, inside = inside, []
                tick = chains[0][0] if chains else math.inf
            elif admit and delay is not None:
                limit = head if head < tick else tick
                if until is not None and until < limit:
                    limit = until
                if limit - t0 > stretch * delay:
                    # A long quiet stretch ahead: commit it as arrays.
                    count, t0, delay, seq, prev = self._commit_segment(
                        template,
                        cursor,
                        (t0, delay, seq, prev),
                        (limit, until),
                        (cred, emitted, hc),
                    )
                    if count:
                        committed += count
                        continue
            if not admit:
                if committed or owed:
                    cursor.time = t0
                    pending.insert(0, delay)
                break
            committed += 1
            bucket = int(t0)
            src_buckets[bucket] = src_buckets.get(bucket, 0) + 1
            for records, arrived, latency in root_recs:
                records[bucket] = records.get(bucket, 0) + 1
                arrived.append(t0)
                latency.append(t0 - t0)
            seq += draws_at_t0
            if delay is None:
                cursor.live = False
            else:
                cursor.seq = seq
                seq += 1
            times[n] = t0
            late = late_total
            for i, (parent, draw, dt, slot, rate, primary, sel, recs) in (
                enumerate(plan)
            ):
                if not emit[parent]:
                    emit[i] = False
                    late -= draw
                    continue
                parent_t = times[parent]
                t = parent_t + dt
                times[i] = t
                hc[slot] += rate * (t - parent_t)
                if not primary:
                    continue
                value = cred[i] + sel
                if value >= 1.0:
                    cred[i] = value - 1.0
                    emitted[i] += 1
                    emit[i] = True
                    if recs:
                        t_bucket = int(t)
                        for records, arrived, latency in recs:
                            records[t_bucket] = records.get(t_bucket, 0) + 1
                            arrived.append(t)
                            latency.append(t - t0)
                else:
                    cred[i] = value
                    emit[i] = False
            seq += late
            if inside:
                seq += len(inside)
                inside = []
            if delay is None:
                break
            t0 = t0 + delay
            if pending:
                delay = pending.pop(0)
                continue
            try:
                arrival = next(gen)
            except StopIteration:
                delay = None
            else:
                delay = arrival - prev
                prev = arrival
                if not delay >= 0:  # negative or NaN, as _draw_delay
                    raise cursor.source.step_back(delay)
        if ticks:
            env.engine_account(processed=ticks)
            self.stats["ticks_stepped"] += ticks
        self._put_back(chains)
        if not committed:
            if not owed:
                return False
            self._replay_owing(cursor, owed)
            return True
        # ------------------------------------------------------------------
        # Writeback: what the counts fix, folded once per executed step.
        # ------------------------------------------------------------------
        cursor.prev = prev
        env._sequence = seq
        net = self._network
        hosts = template.hosts
        hl = [h._last_update for h in hosts]
        total_exec = 0
        for i, step in enumerate(steps):
            parent, _, _, slot, _, primary, sel, _ = plan[i]
            count = committed if parent == n else emitted[parent]
            if not count:
                continue
            total_exec += count
            replica = step.replica
            port = step.port
            metrics = replica._metrics
            # Resolved on the port's first tuple, as ``on_tuple`` does.
            counters = replica._counters[port]
            if counters is None:
                counters = replica._counters[port] = metrics.port(
                    replica._ports[port].name
                )
            metrics.received += count
            metrics.processed += count
            counters.received += count
            counters.processed += count
            replica._overflowed[port] = False
            cpus = (step.cpu,) * count  # one add per run, left to right
            if metrics.busy_time == counters.busy_time:
                # One input port (every chain PE): same start, same adds.
                metrics.busy_time = counters.busy_time = reduce(
                    add, cpus, metrics.busy_time
                )
            else:
                metrics.busy_time = reduce(add, cpus, metrics.busy_time)
                counters.busy_time = reduce(add, cpus, counters.busy_time)
            if primary:
                metrics.processed_as_primary += count
                credit, produced = cred[i], emitted[i]
                fx = step.fx
                if produced and fx is not None:
                    net.intra_host_tuples += fx.intra * produced
                    net.inter_host_tuples += fx.inter * produced
                    for sink, _series, _latency in fx.sinks:
                        sink.received += produced
            else:
                j = template.twins[i]
                twin = (start[j], cred[j], emitted[j]) if j >= 0 else None
                credit, produced = self._fold_credit(cred[i], sel, count, twin)
            replica._credits[port] = credit
            if produced:
                counters.emitted += produced
            if times[i] > hl[slot]:
                hl[slot] = times[i]
        root_fx = template.root_fx
        if root_fx is not None:
            # A source has no host: its delivery counts no transfer.
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
        last_t = max(times[n], env.now, last_tick)
        for i, entry in enumerate(plan):
            if emit[entry[0]] and times[i] > last_t:
                last_t = times[i]
        env.advance_clock(last_t)
        env.engine_account(processed=committed + total_exec)
        self.stats["cascades"] += committed
        self.stats["runs"] += 1
        if owed:
            self._replay_owing(cursor, owed)
        return True

    def _commit_segment(
        self,
        template: _Template,
        cursor: _SourceCursor,
        at: tuple[float, float, int, float],
        bounds: tuple[float, Optional[float]],
        train: tuple[list[float], list[int], list[float]],
    ) -> tuple[int, float, Optional[float], int, float]:
        """Commit the quiet stretch ahead of an admitted arrival as
        arrays, arrival-major, exactly as the per-arrival loop would.

        ``at`` is the train's ``(t0, delay, seq, prev)`` at that
        arrival, ``bounds`` its ``(head, until)`` and ``train`` its
        ``(cred, emitted, hc)``, updated in place. The stretch is drawn
        ahead onto the cursor's stash; ``np.add.accumulate`` replays
        the ``t0 = t0 + delay`` fold bit for bit, and the prefix up to
        the first arrival the loop would refuse commits here. Returns
        ``(count, t0, delay, seq, prev)`` for the next arrival; count 0
        (the stream ends right here) commits nothing.

        Every fold stays a left fold in the loop's order: step times
        and host-cycle increments are elementwise; each host's cycles
        fold with ``np.add.accumulate`` over its increments taken
        arrival-major then in plan order, ``+0.0`` where a step did not
        run (cycles start at ``+0.0`` and only grow, so that adds
        nothing); each primary's credit folds in Python over the runs
        of its parent, unless the credit is a fixed point of the step.
        """
        t0, delay, seq, prev = at
        head, until = bounds
        cred, emitted, hc = train
        pending = cursor.pending
        limit = head if until is None or head < until else until
        # Draw until an arrival lands past the limit, in batches of the
        # span left over the current gap (admitted, so positive): a
        # short stretch draws little it only stashes.
        while (
            prev <= limit
            and None not in pending[-1:]
            and len(pending) < _MAX_SEGMENT
        ):
            span = (limit - prev) / delay
            room = _MAX_SEGMENT - len(pending)
            prev = self._draw_ahead(
                cursor, prev, int(span) + 2 if span < room else room
            )
        judged = min(len(pending) - (None in pending[-1:]), _MAX_SEGMENT)
        if not judged:
            return 0, t0, delay, seq, prev
        # Arrival k is admitted as the loop admits it.
        arrivals = np.add.accumulate(
            np.fromiter(chain((t0, delay), pending), float, judged + 1)
        )
        bound = arrivals[:-1] + template.guard
        admit = bound < arrivals[1:]
        admit &= bound < head
        if until is not None:
            admit &= bound <= until
        count = int(admit.argmin())
        if admit[count]:
            count = judged
        cols = template.columns()
        n = len(template.plan)
        # Row n holds the arrivals: the source fire every step hangs off.
        times = np.empty((n + 1, count))
        times[n] = arrivals[:count]
        for i, parent, dt in cols.steps:
            np.add(times[parent], dt, out=times[i])
        emits = np.zeros((n + 1, count), dtype=bool)
        emits[n] = True
        for i, parent, sel, _recs in cols.primaries:
            ran = emits[parent]
            emits[i] = ran
            credit = cred[i]
            value = credit + sel
            if value >= 1.0 and value - 1.0 == credit:
                # A fixed point (selectivity 1 from credit 0): every
                # run emits and the credit stays.
                emitted[i] += int(np.count_nonzero(ran))
                continue
            runs = int(np.count_nonzero(ran))
            idle = []  # the runs that do not emit
            for k in range(runs):
                credit += sel
                if credit >= 1.0:
                    credit -= 1.0
                else:
                    idle.append(k)
            cred[i] = credit
            emitted[i] += runs - len(idle)
            if idle:
                emits[i, ran.nonzero()[0][idle]] = False
        ran = emits[cols.parents]
        # Host cycles: the loop's increments, folded per host.
        steps = np.zeros((n + 1, count))
        np.multiply(
            cols.rates,
            times[:n] - times[cols.parents],
            out=steps[:n],
            where=ran,
        )
        if hc:
            folded = self._fold_cycles(np.array(hc), steps[cols.hosts])
            hc[:] = folded.tolist()
        # Sequence numbers: per arrival its draws at t0, the cursor's,
        # then one per step that ran and draws late.
        late = ran[cols.late]
        seq += count * (template.draws_at_t0 + 1)
        seq += int(np.count_nonzero(late))
        cursor.seq = seq - 1 - int(np.count_nonzero(late[:, -1]))
        # Series and latency samples, each sink fed by one deliverer.
        committed = times[n]
        self._count_buckets(template.source_series._buckets, committed)
        for records, arrived, latency in template.root_sink_records:
            self._count_buckets(records, committed)
            arrived.extend(committed.tolist())
            latency.extend((committed - committed).tolist())
        for i, _parent, _sel, recs in cols.primaries:
            if recs:
                mask = emits[i]
                ts = times[i][mask]
                stamps = ts.tolist()
                latencies = (ts - committed[mask]).tolist()
                for records, arrived, latency in recs:
                    self._count_buckets(records, ts)
                    arrived.extend(stamps)
                    latency.extend(latencies)
        # The loop's carried state: each step's last executed time and
        # the final arrival's emit pattern.
        last = (count - 1) - ran[:, ::-1].argmax(axis=1)
        carried = template.times
        for i, did, t in zip(
            range(n),
            ran[cols.rows, last].tolist(),
            times[cols.rows, last].tolist(),
        ):
            if did:
                carried[i] = t
        carried[n] = committed[-1].item()
        template.emit[:n] = emits[:n, -1].tolist()
        self.stats["array_arrivals"] += count
        delay = pending[count - 1]
        del pending[:count]
        return count, arrivals[count].item(), delay, seq, prev

    @staticmethod
    def _fold_cycles(start: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Each host's cycles after a segment: ``start[h]`` plus the
        increments ``steps[h, w, k]`` (plan position ``w``, arrival
        ``k``), added one at a time arrival-major — a left fold, which
        ``np.sum`` (pairwise) is not."""
        hosts = len(start)
        flat = steps.transpose(0, 2, 1).reshape(hosts, -1)
        folded = np.add.accumulate(
            np.concatenate((start[:, None], flat), axis=1), axis=1
        )
        return folded[:, -1]

    @staticmethod
    def _count_buckets(records: dict[int, int], times: np.ndarray) -> None:
        """``records[int(t)] += 1`` for each of ``times`` (ascending),
        one dict update per run of equal buckets."""
        if not times.size:
            return
        buckets = times.astype(np.int64)  # int(t): truncation
        cuts = (buckets[1:] != buckets[:-1]).nonzero()[0] + 1
        starts = [0, *cuts.tolist()]
        ends = starts[1:] + [buckets.size]
        for bucket, start, end in zip(
            buckets[starts].tolist(), starts, ends
        ):
            records[bucket] = records.get(bucket, 0) + end - start

    @staticmethod
    def _fold_credit(
        credit: float,
        sel: float,
        count: int,
        twin: Optional[tuple[float, float, int]],
    ) -> tuple[float, int]:
        """A secondary's credit and emitted count after ``count`` runs;
        ``twin`` is its primary twin's (start credit, credit, emitted)
        over the same runs, None when its group has no primary."""
        if twin is not None and twin[0] == credit:
            return twin[1], twin[2]
        produced = 0
        for _ in range(count):
            value = credit + sel
            out = int(value)
            credit = value - out
            produced += out
        return credit, produced

    def _replay_owing(self, cursor: _SourceCursor, owed: list[float]) -> None:
        """Replay ``cursor``'s arrival tuple-granular around the chain
        firings :meth:`_cross` already stepped inside its cascade.

        Each drew the sequence number the replay reaches just before
        its time, so the replay runs the heap up to that time, skips
        the number, and goes on. The chains are back on the heap, at or
        after the last of those times, and the next arrival is later
        than all of it, so cancelled heads on the way are the engine's
        to purge.
        """
        self.stats["bails"] += 1
        self._micro_fire(cursor, None, drawn=False)
        env = self._env
        queue = env._queue
        for time in owed:
            while queue and queue[0][0] < time:
                if queue[0][2].cancelled:
                    heapq.heappop(queue)
                    env.engine_account(cancelled=1)
                else:
                    env.fire_head()
            env.take_seq()

    # ------------------------------------------------------------------
    # Template construction
    # ------------------------------------------------------------------

    def _template_for(self, source_name: str) -> Optional[_Template]:
        entry = self._templates.get(source_name)
        if entry is not None and entry[0] == self._platform.control_epoch:
            return entry[1]
        template = self._build_template(source_name)
        self._templates[source_name] = (self._platform.control_epoch, template)
        self.stats["template_builds"] += 1
        return template

    def _build_template(self, source_name: str) -> Optional[_Template]:
        """Symbolically execute one source tuple's cascade, or None.

        Runs a miniature event-list simulation at offsets from the
        arrival time with every selectivity multiplicity forced to one.
        Any structure whose per-tuple behaviour could deviate from the
        recorded shape — fan-in, a selectivity above one, overlapping
        processor-sharing episodes, tuple tracing — rejects the
        template, which simply means those arrivals run on the kernel
        path.
        """
        platform = self._platform
        if platform.telemetry.tuple_tracer is not None:
            return None
        graph = platform._graph
        groups = platform._groups
        sinks = platform._sinks
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
                sender_host = steps[idx].replica.host.name
            fx = _DeliveryFx()
            have_fx = False
            for succ in graph.succ(comp):
                if succ in visited:
                    # Fan-in: a PE's multiplicity is per-tuple, and a
                    # sink's samples land in completion order, which a
                    # train's plan order need not follow.
                    return None
                visited.add(succ)
                group = groups.get(succ)
                if group is None:
                    sink = sinks[succ]
                    fx.sinks.append((sink, sink.series, sink.latency))
                    have_fx = True
                    continue
                members = group.members
                if not members:
                    continue
                if idx >= 0:
                    have_fx = True
                    for member in members:
                        if sender_host == member.host.name:
                            fx.intra += 1
                        else:
                            fx.inter += 1
                sample = members[0]
                port = sample._port_index[comp]
                spec = sample._ports[port]
                if spec.selectivity > 1.0:
                    return None  # one arrival may emit two tuples
                primary = group.primary
                for member in members:
                    if not member.processable:
                        continue
                    host = member.host
                    delay = max(spec.cycles, 0.0) / host.capacity
                    end = offset + delay
                    previous = busy.get(host.name)
                    if previous is not None:
                        prev_end, prev_idx = previous
                        if offset == prev_end and prev_idx == idx:
                            # Exact hand-off: the previous occupant is
                            # the parent, whose completion submits this
                            # job, and the scheduler removes finished
                            # jobs before callbacks run, so the host is
                            # idle at this submit. Another step ending
                            # at the same symbolic offset does not do:
                            # its time is a different chain of float
                            # adds from the arrival, and can end an ulp
                            # after this submit.
                            pass
                        elif offset > prev_end + _GUARD_MARGIN:
                            pass  # strictly sequential reuse
                        else:
                            return None  # overlapping episodes: real PS
                    new_idx = len(steps)
                    busy[host.name] = (end, new_idx)
                    steps.append(
                        _Step(
                            parent=idx,
                            pe=succ,
                            end=end,
                            delay=delay,
                            cpu=host.cpu_seconds(spec.cycles),
                            sel=spec.selectivity,
                            port=port,
                            replica=member,
                            primary=member is primary,
                        )
                    )
                    if member is primary:
                        heapq.heappush(work, (end, order, new_idx))
                        order += 1
                if len(steps) > _MAX_STEPS:
                    return None
            delivery_fx = fx if have_fx else None
            if idx < 0:
                root_fx = delivery_fx
            else:
                steps[idx].fx = delivery_fx
        return _Template(
            steps, root_fx, platform.metrics.source_series[source_name]
        )
