"""A deterministic per-tenant autoscaler for the diurnal dataplane.

The fleet dataplane gives every tenant one High-rate burst per run —
its "daily peak", staggered across tenants the way time zones stagger a
real diurnal cycle. This control loop turns that calendar into
elasticity actions on the live platform:

* **ahead of the peak** it scales every PE up to its full replica set
  (activating warm standbys, or re-adding replicas that the night
  consolidation removed) with enough lead for state transfers to land
  before the burst arrives;
* **after the peak** it scales back down to a single active replica per
  PE, and — for consolidating tenants — removes the standby replicas on
  one designated host and drains it so its cores can be reclaimed;
* **every tick** it runs a reactive cover guard: a PE whose processable
  cover has been wiped out (host crash during the trough, say) gets an
  alive standby re-activated immediately, calendar or not.

Every action is submitted through the :class:`MigrationEngine`'s
feasibility proof — the loop *proposes*, the proof *admits* — so no
intermediate deployment ever drops below the IC-SLA floor by
construction: a scale-down that would remove the last processable
cover is refused, not retried harder.

Determinism: the loop is pure sim-time (an ``env.recur`` chain of
ticks), reads only platform state, and never draws randomness, so an
elastic run is bit-identical across execution modes and worker counts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from repro.dsps.platform import StreamPlatform
from repro.elastic.migration import MigrationAction, MigrationEngine
from repro.errors import SimulationError

__all__ = ["Autoscaler", "AutoscalerPolicy"]

#: The calendar (simulated seconds). The scale-up starts ``SCALE_LEAD``
#: before the peak — it must cover the slowest state transfer plus the
#: dual-running window, or the proof will still be warming replicas
#: when the burst lands — and the scale-down ``SCALE_LAG`` after it.
#: The night consolidation ends ``CONSOLIDATE_MARGIN`` before the
#: scale-up, so the host is back before its replicas are wanted.
SCALE_LEAD = 2.0
SCALE_LAG = 1.0
CONSOLIDATE_MARGIN = 1.5
#: Active replicas per PE inside and outside the widened peak window.
PEAK_PARALLELISM = 2
TROUGH_PARALLELISM = 1


@dataclass(frozen=True)
class AutoscalerPolicy:
    """What one tenant's control loop does, and how often it looks.

    ``consolidate`` additionally removes the standby replicas on one
    host during the trough and drains it (night consolidation);
    ``rebalance`` live-moves one standby to the least-loaded host after
    the peak (exercising the full transfer/dual/cutover protocol).
    """

    tick: float = 0.25
    consolidate: bool = False
    rebalance: bool = False

    def __post_init__(self) -> None:
        if self.tick <= 0:
            raise SimulationError("tick must be > 0")


class Autoscaler:
    """One tenant's elasticity control loop.

    Parameters
    ----------
    platform, engine:
        The live platform and the migration engine driving it.
    peak_start, peak_end:
        The tenant's High-rate window (known calendar, not a forecast —
        the diurnal cycle is the one thing a fleet operator can bank
        on; the reactive guard covers everything the calendar cannot).
    horizon:
        Run length; the loop stops scheduling ticks past it.
    consolidation_host:
        The host the night consolidation empties (required when the
        policy consolidates).
    """

    def __init__(
        self,
        platform: StreamPlatform,
        engine: MigrationEngine,
        peak_start: float,
        peak_end: float,
        horizon: float,
        policy: Optional[AutoscalerPolicy] = None,
        consolidation_host: Optional[str] = None,
    ) -> None:
        self._platform = platform
        self._engine = engine
        self._policy = policy or AutoscalerPolicy()
        self._peak_start = peak_start
        self._peak_end = peak_end
        self._horizon = horizon
        self._chost = consolidation_host
        if self._policy.consolidate and consolidation_host is None:
            raise SimulationError(
                "consolidating policy needs a consolidation_host"
            )
        self._pes = platform.deployment.descriptor.graph.pes
        self._consolidated = False
        self._removed: list[str] = []
        self._moved = False
        self._quiet_memo: tuple[object, bool] = (None, False)
        #: The instants where the calendar's answers can change: each
        #: predicate is constant between two of them.
        lead = peak_start - SCALE_LEAD
        self._calendar = sorted(
            (lead - CONSOLIDATE_MARGIN, lead, peak_end + SCALE_LAG)
        )
        self._idle_memo: tuple[object, bool] = (None, False)
        # Counters (reported in the tenant digest).
        self.scale_ups = 0
        self.scale_downs = 0
        self.reactivations = 0
        self.consolidations = 0
        self.expansions = 0
        self.moves = 0
        self.skipped = 0

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin ticking at t=0."""
        self._platform.env.recur(0.0, self._step, self._idle)

    def desired_parallelism(self, now: float) -> int:
        """The calendar's answer: peak parallelism inside the widened
        High window (lead before, lag after), trough outside it."""
        if self._peak_start - SCALE_LEAD <= now < self._peak_end + SCALE_LAG:
            return PEAK_PARALLELISM
        return TROUGH_PARALLELISM

    # ------------------------------------------------------------------
    # What a tick would do: the predicates ``_reconcile`` acts on, and
    # the probe that tells the batched engine a tick would do nothing.
    # ------------------------------------------------------------------

    def _consolidation_due(self, now: float) -> bool:
        """Does the night calendar disagree with the consolidation
        state the tenant is in?"""
        if not self._policy.consolidate:
            return False
        night_until = self._peak_start - SCALE_LEAD - CONSOLIDATE_MARGIN
        want_consolidated = (
            now < night_until or now >= self._peak_end + SCALE_LAG
        )
        return want_consolidated != self._consolidated

    def _move_due(self, now: float) -> bool:
        return (
            self._policy.rebalance
            and not self._moved
            and now >= self._peak_end + SCALE_LAG
        )

    def _rescale_due(
        self, pe: str, target: int
    ) -> Optional[tuple[int, int, bool]]:
        """The rescale ``pe`` needs as ``(want, actives, reactive)``, or
        ``None`` when it already sits where the calendar wants it."""
        members = self._platform.group(pe).members
        if not members:
            return None
        actives = 0
        covered = standby = False
        for member in members:
            if member.active:
                actives += 1
                covered = covered or member.processable
            elif member.alive:
                standby = True
        if not covered and standby:
            # Reactive cover guard: the calendar does not get a vote
            # when the PE has no processable replica left.
            return min(len(members), actives + 1), actives, True
        want = min(target, len(members))
        if actives == want:
            return None
        return want, actives, False

    def _quiet(self, target: int) -> bool:
        """Does every PE sit at ``target``? What ``_rescale_due`` reads
        only changes with the control epoch: one walk per epoch."""
        key = (self._platform.control_epoch, target)
        if self._quiet_memo[0] != key:
            walk = (self._rescale_due(pe, target) for pe in self._pes)
            self._quiet_memo = (key, all(due is None for due in walk))
        return self._quiet_memo[1]

    def _idle(self, time: float) -> bool:
        """Would a tick at ``time`` find nothing to do?

        Reads the calendar and control-plane state only (membership,
        ``alive`` / ``active`` flags), so the answer given before the
        tick fires is the one the tick itself will reach. Memoised per
        control epoch and calendar interval; a tick that acts flips the
        loop's own flags and forgets it.
        """
        interval = bisect_right(self._calendar, time)
        key = (self._platform.control_epoch, interval)
        if self._idle_memo[0] != key:
            idle = not (
                self._consolidation_due(time) or self._move_due(time)
            ) and self._quiet(self.desired_parallelism(time))
            self._idle_memo = (key, idle)
        return self._idle_memo[1]

    # ------------------------------------------------------------------

    def _step(self, time: float) -> Optional[float]:
        """The tick at ``time``; the delay to the next one, None once
        that would pass the horizon."""
        self._reconcile(time)
        tick = self._policy.tick
        return tick if time + tick <= self._horizon else None

    def _reconcile(self, now: float) -> None:
        if self._idle(now):
            return
        self._idle_memo = (None, False)
        if self._consolidation_due(now):
            assert self._chost is not None
            if self._consolidated:
                self._expand(self._chost)
            else:
                self._consolidate(self._chost)
        if self._move_due(now):
            self._move_standby()
        target = self.desired_parallelism(now)
        if self._quiet(target):
            return
        for pe in self._pes:
            due = self._rescale_due(pe, target)
            if due is not None:
                self._rescale(pe, *due)

    def _rescale(
        self, pe: str, want: int, actives: int, reactive: bool
    ) -> None:
        engine = self._engine
        action = MigrationAction(kind="rescale", pe=pe, parallelism=want)
        ok, _ = engine.feasible(action)
        if not ok:
            self.skipped += 1
            return
        changed = engine.rescale(pe, want)
        if reactive:
            self.reactivations += 1
        elif want > actives:
            self.scale_ups += len(changed)
        else:
            self.scale_downs += len(changed)

    # ------------------------------------------------------------------
    # Night consolidation
    # ------------------------------------------------------------------

    def _consolidate(self, chost: str) -> None:
        engine = self._engine
        platform = self._platform
        for rid in platform.residents(chost):
            action = MigrationAction(kind="remove", pe=rid.pe, src=chost)
            ok, _ = engine.feasible(action)
            if not ok:
                self.skipped += 1
                continue
            engine.remove_replica(rid.pe, chost)
            self._removed.append(rid.pe)
        engine.drain(chost)
        self._consolidated = True
        self.consolidations += 1

    def _expand(self, chost: str) -> None:
        engine = self._engine
        engine.uncordon(chost)
        for pe in self._removed:
            action = MigrationAction(kind="add", pe=pe, dst=chost)
            ok, _ = engine.feasible(action)
            if not ok:
                self.skipped += 1
                continue
            engine.add_replica(pe, chost)
        self._removed = []
        self._consolidated = False
        self.expansions += 1

    # ------------------------------------------------------------------
    # Rebalancing move (exercises the full migration protocol)
    # ------------------------------------------------------------------

    def _move_standby(self) -> None:
        self._moved = True
        engine = self._engine
        for pe in self._pes:
            for member in self._platform.group(pe).members:
                if member.is_primary or not member.alive:
                    continue
                src = member.host.name
                dst = engine.best_target(pe, src)
                if dst is None:
                    continue
                engine.migrate(pe, src, dst)
                self.moves += 1
                return
        self.skipped += 1
