"""The live-reconfiguration protocol: migrations as sim-time windows.

A migration moves one PE replica between hosts (or adds, removes, or
re-activates one) while tuples are in flight. The protocol is the
classic state-transfer / dual-running / cutover sequence of live
operator migration (see "Integrative Dynamic Reconfiguration in a
Parallel Stream Processing Engine", PAPERS.md), collapsed into four
deterministic sim-time steps:

``start``
    A fresh replica is attached on the destination host (inactive: it
    is *warming*, receiving no input) and the state transfer begins.
    Transfer time is proportional to the PE's state size (its summed
    per-tuple input CPU cost — heavier operators carry more state).
``transfer``
    The transfer finished: the new replica activates and runs *next to*
    the old one for a bounded dual-running window, so a failure of
    either host during the window never reduces coverage below the old
    deployment's.
``cutover``
    Atomic: the old replica leaves the delivery set (a controller
    action — the primary role hands over immediately if it held it) and
    drains its queued tuples without forwarding, exactly like a
    secondary. After a bounded drain grace it is deactivated; whatever
    it still held is accounted as ``lost``.
``done`` / ``abort``
    Terminal. A crash of the source or destination host before cutover
    aborts the migration: the new replica is detached again and the old
    deployment stays authoritative (the rollback the chaos invariants
    check). After cutover the migration is past its commit point and
    host failures are ordinary failovers of the *new* deployment.

Every step runs through the platform's control entry points, so the
batched engine's control epoch moves with it (cascade templates are
rebuilt from the new membership), the
:class:`~repro.dsps.batched.FallbackTracker` marks the disturbance in
both execution modes, and the event log stays byte-identical between
batched and tuple-granular execution across every migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.deployment import ReplicaId
from repro.dsps.operators import OperatorReplica
from repro.dsps.platform import StreamPlatform
from repro.errors import SimulationError
from repro.sim import EventHandle

__all__ = [
    "MigrationAction",
    "MigrationEngine",
]


@dataclass(frozen=True)
class MigrationAction:
    """One elasticity step: move/add/remove a replica or rescale a PE."""

    kind: str  # "move" | "add" | "remove" | "rescale"
    pe: str
    src: str = ""  # move/remove: source host
    dst: str = ""  # move/add: destination host
    parallelism: int = 0  # rescale: target number of active replicas

    def __post_init__(self) -> None:
        if self.kind not in ("move", "add", "remove", "rescale"):
            raise SimulationError(f"unknown migration kind {self.kind!r}")
        if self.kind == "move" and (not self.src or not self.dst):
            raise SimulationError("move needs src and dst hosts")
        if self.kind == "add" and not self.dst:
            raise SimulationError("add needs a dst host")
        if self.kind == "remove" and not self.src:
            raise SimulationError("remove needs a src host")
        if self.kind == "rescale" and self.parallelism < 1:
            raise SimulationError("rescale needs parallelism >= 1")


#: Protocol timings (simulated seconds). The transfer is priced per
#: giga-cycle of state: a PE whose input edges cost N giga-cycles per
#: tuple carries N times this many seconds of state to copy.
TRANSFER_SECONDS_PER_GCYCLE = 0.5
#: Bound on dual-running (new and old replica both processing).
DUAL_WINDOW = 1.0
#: Bound on the old replica's post-cutover drain.
DRAIN_GRACE = 1.0


@dataclass
class _Open:
    """Mutable state of one in-flight migration window."""

    migration: str
    action: str
    pe: str
    old: Optional[ReplicaId]
    new: Optional[ReplicaId]
    src: str
    dst: str
    phase: str  # "transfer" | "dual" | "drain"
    handle: Optional[EventHandle] = None
    drain_host: Optional[str] = None


class MigrationEngine:
    """Executes :class:`MigrationAction` protocols on one platform.

    One engine per :class:`~repro.dsps.platform.StreamPlatform`; it
    registers a host-crash hook so open migration windows touched by a
    failure abort (and roll back) instead of dangling. All scheduling
    is sim-time via the platform's own environment, so runs are
    bit-identical across execution modes and worker counts.
    """

    def __init__(self, platform: StreamPlatform) -> None:
        self._platform = platform
        self._seq = 0
        self._open: dict[str, _Open] = {}
        #: Hosts no longer accepting new replicas (cordoned or drained).
        self.cordoned: set[str] = set()
        #: Drains in progress: host -> outstanding migration ids.
        self._drains: dict[str, set[str]] = {}
        self.completed = 0
        self.aborted = 0
        #: Migrations refused by the feasibility proof (never started).
        self.refused = 0
        platform.on_host_crash.append(self._on_host_crash)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def open_migrations(self) -> tuple[str, ...]:
        return tuple(self._open)

    @property
    def attempted(self) -> int:
        """Migrations that entered the protocol (done + aborted + open)."""
        return self._seq

    def window(self, mid: str) -> tuple[str, str, str, str]:
        """``(pe, src, dst, phase)`` of an open migration window.

        Chaos injectors use this to aim host kills at in-flight
        transfers; raises for settled migrations.
        """
        try:
            open_ = self._open[mid]
        except KeyError:
            raise SimulationError(f"no open migration {mid!r}") from None
        return (open_.pe, open_.src, open_.dst, open_.phase)

    def state_seconds(self, pe: str) -> float:
        """The state-transfer time for one replica of ``pe``."""
        descriptor = self._platform.deployment.descriptor
        cycles = sum(
            descriptor.cpu_cost(edge.tail, pe)
            for edge in descriptor.graph.pe_input_edges(pe)
        )
        return TRANSFER_SECONDS_PER_GCYCLE * cycles / 1e9

    def _member_on(self, pe: str, host: str) -> Optional[OperatorReplica]:
        for member in self._platform.group(pe).members:
            if member.host.name == host:
                return member
        return None

    # ------------------------------------------------------------------
    # Feasibility (the admission-style proof before every action)
    # ------------------------------------------------------------------

    def feasible(self, action: MigrationAction) -> tuple[bool, str]:
        """Would ``action`` keep every intermediate deployment legal?

        Checks the one-replica-per-core budget, PE anti-affinity, host
        cordons, and — the IC-SLA floor — that the PE keeps at least
        one alive-and-active replica through every intermediate state.
        The engine re-proves the cutover-relevant part again at cutover
        time (never fire-and-forget): see :meth:`_cutover`.
        """
        platform = self._platform
        kind = action.kind
        if kind in ("move", "add"):
            dst = action.dst
            if dst in self.cordoned:
                return False, f"dst {dst} is cordoned"
            try:
                host = platform.deployment.host(dst)
            except Exception:
                return False, f"unknown dst host {dst}"
            if len(platform.residents(dst)) >= host.cores:
                return False, f"dst {dst} has no free core"
            if self._member_on(action.pe, dst) is not None:
                return False, f"pe {action.pe} already on {dst}"
        if kind == "move":
            member = self._member_on(action.pe, action.src)
            if member is None:
                return False, f"no replica of {action.pe} on {action.src}"
            for open_ in self._open.values():
                if open_.pe == action.pe:
                    return False, f"pe {action.pe} already migrating"
        if kind == "remove":
            member = self._member_on(action.pe, action.src)
            if member is None:
                return False, f"no replica of {action.pe} on {action.src}"
            survivors = sum(
                1
                for other in self._platform.group(action.pe).members
                if other is not member and other.processable
            )
            if survivors < 1:
                return False, f"removing last cover of {action.pe}"
        if kind == "rescale":
            members = self._platform.group(action.pe).members
            alive = sum(1 for m in members if m.alive)
            if action.parallelism > len(members):
                return (
                    False,
                    f"pe {action.pe} has only {len(members)} replicas",
                )
            if alive < 1:
                return False, f"pe {action.pe} has no alive replica"
        return True, ""

    # ------------------------------------------------------------------
    # Protocol entry points
    # ------------------------------------------------------------------

    def migrate(self, pe: str, src: str, dst: str) -> str:
        """Live-move the replica of ``pe`` on ``src`` to ``dst``."""
        action = MigrationAction(kind="move", pe=pe, src=src, dst=dst)
        ok, reason = self.feasible(action)
        if not ok:
            raise SimulationError(f"infeasible migration: {reason}")
        member = self._member_on(pe, src)
        assert member is not None
        platform = self._platform
        mid = self._next_id()
        new_id = platform.attach_replica(pe, dst, active=False)
        platform.telemetry.emit(
            "migration.start",
            migration=mid,
            pe=pe,
            action="move",
            replica=str(new_id),
            src=src,
            dst=dst,
        )
        open_ = _Open(
            migration=mid,
            action="move",
            pe=pe,
            old=member.replica_id,
            new=new_id,
            src=src,
            dst=dst,
            phase="transfer",
        )
        self._open[mid] = open_
        seconds = self.state_seconds(pe)
        open_.handle = platform.env.schedule(
            seconds, lambda: self._finish_transfer(mid, seconds)
        )
        return mid

    def add_replica(self, pe: str, dst: str) -> str:
        """Scale out: attach and warm a new replica of ``pe`` on ``dst``."""
        action = MigrationAction(kind="add", pe=pe, dst=dst)
        ok, reason = self.feasible(action)
        if not ok:
            raise SimulationError(f"infeasible migration: {reason}")
        platform = self._platform
        mid = self._next_id()
        new_id = platform.attach_replica(pe, dst, active=False)
        platform.telemetry.emit(
            "migration.start",
            migration=mid,
            pe=pe,
            action="add",
            replica=str(new_id),
            src="",
            dst=dst,
        )
        open_ = _Open(
            migration=mid,
            action="add",
            pe=pe,
            old=None,
            new=new_id,
            src="",
            dst=dst,
            phase="transfer",
        )
        self._open[mid] = open_
        seconds = self.state_seconds(pe)
        open_.handle = platform.env.schedule(
            seconds, lambda: self._finish_transfer(mid, seconds)
        )
        return mid

    def remove_replica(self, pe: str, src: str) -> str:
        """Scale in: deactivate and detach the replica of ``pe`` on
        ``src``. Immediate (no state leaves the platform)."""
        action = MigrationAction(kind="remove", pe=pe, src=src)
        ok, reason = self.feasible(action)
        if not ok:
            raise SimulationError(f"infeasible migration: {reason}")
        member = self._member_on(pe, src)
        assert member is not None
        platform = self._platform
        mid = self._next_id()
        rid = member.replica_id
        platform.telemetry.emit(
            "migration.start",
            migration=mid,
            pe=pe,
            action="remove",
            replica=str(rid),
            src=src,
            dst="",
        )
        lost = self._deactivate_counting_lost(rid)
        platform.detach_replica(rid)
        platform.telemetry.emit(
            "migration.done",
            migration=mid,
            pe=pe,
            action="remove",
            lost=lost,
        )
        self.completed += 1
        return mid

    def rescale(self, pe: str, parallelism: int) -> list[str]:
        """Set the number of *active* replicas of ``pe``.

        Each activation toggle is one (instant) migration: replicas are
        deactivated highest-index-first and re-activated
        lowest-index-first, so a night-time scale-down and the morning
        scale-up are exact mirrors.
        """
        action = MigrationAction(
            kind="rescale", pe=pe, parallelism=parallelism
        )
        ok, reason = self.feasible(action)
        if not ok:
            raise SimulationError(f"infeasible migration: {reason}")
        platform = self._platform
        members = platform.group(pe).members
        active = [m for m in members if m.active]
        ids: list[str] = []
        if len(active) > parallelism:
            # Deactivate extras, but never the last processable cover.
            for member in reversed(active):
                if len(active) <= parallelism:
                    break
                survivors = sum(
                    1
                    for other in members
                    if other is not member
                    and other.active
                    and other.alive
                )
                if survivors < 1:
                    self.refused += 1
                    continue
                ids.append(self._toggle(pe, member, False))
                active.remove(member)
        elif len(active) < parallelism:
            for member in members:
                if len(active) >= parallelism:
                    break
                if member.active or not member.alive:
                    continue
                ids.append(self._toggle(pe, member, True))
                active.append(member)
        return ids

    def _toggle(self, pe: str, member: OperatorReplica, up: bool) -> str:
        platform = self._platform
        mid = self._next_id()
        rid = member.replica_id
        host = member.host.name
        platform.telemetry.emit(
            "migration.start",
            migration=mid,
            pe=pe,
            action="rescale",
            replica=str(rid),
            src=host,
            dst=host,
        )
        if up:
            lost = 0
            platform.set_activation(rid, True)
        else:
            lost = self._deactivate_counting_lost(rid)
        platform.telemetry.emit(
            "migration.done",
            migration=mid,
            pe=pe,
            action="rescale",
            lost=lost,
        )
        self.completed += 1
        return mid

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _deactivate_counting_lost(self, rid: ReplicaId) -> int:
        """Deactivate ``rid`` and return the tuples its queue lost.

        Read as a metrics delta *around* the controlled deactivation
        (never from ``queue_length`` before it) so the number is exact
        in both execution modes — the disturbance the deactivation
        notes is what forces the batched engine out of closed form.
        """
        platform = self._platform
        metrics = platform.metrics.replica(rid)
        before = metrics.lost
        platform.set_activation(rid, False)
        return metrics.lost - before

    # ------------------------------------------------------------------
    # Host lifecycle
    # ------------------------------------------------------------------

    def cordon(self, host: str) -> None:
        """No new replicas land on ``host`` (existing ones stay)."""
        if host in self.cordoned:
            return
        self.cordoned.add(host)
        self._platform.telemetry.emit("host.cordon", host=host)

    def uncordon(self, host: str) -> None:
        """Lift a cordon: ``host`` accepts replicas again."""
        self.cordoned.discard(host)

    def drain(self, host: str) -> tuple[str, ...]:
        """Cordon ``host`` and live-migrate every resident away.

        Residents move to the feasible host with the fewest residents
        (ties by name — deterministic worst-fit). When the last
        migration lands and the host is empty, ``host.reclaim`` is
        emitted and its cores can go back to the provider. Residents
        with no feasible destination stay (counted in ``refused``);
        the reclaim then simply never fires.
        """
        platform = self._platform
        self.cordon(host)
        residents = platform.residents(host)
        platform.telemetry.emit(
            "host.drain", host=host, residents=len(residents)
        )
        started: list[str] = []
        outstanding = self._drains.setdefault(host, set())
        for rid in residents:
            dst = self.best_target(rid.pe, host)
            if dst is None:
                self.refused += 1
                continue
            mid = self.migrate(rid.pe, host, dst)
            self._open[mid].drain_host = host
            outstanding.add(mid)
            started.append(mid)
        if not outstanding:
            self._check_drained(host)
        return tuple(started)

    def best_target(self, pe: str, src: str) -> Optional[str]:
        """Least-loaded feasible destination for ``pe``'s replica on
        ``src`` (ties by name), or ``None`` if nowhere can take it."""
        platform = self._platform
        best: Optional[str] = None
        best_key: Optional[tuple[int, str]] = None
        for host in platform.deployment.hosts:
            name = host.name
            if name == src:
                continue
            action = MigrationAction(kind="move", pe=pe, src=src, dst=name)
            ok, _ = self.feasible(action)
            if not ok:
                continue
            key = (len(platform.residents(name)), name)
            if best_key is None or key < best_key:
                best_key = key
                best = name
        return best

    def _check_drained(self, host: str) -> None:
        outstanding = self._drains.get(host)
        if outstanding is None or outstanding:
            return
        del self._drains[host]
        platform = self._platform
        if not platform.residents(host):
            cores = platform.deployment.host(host).cores
            platform.telemetry.emit("host.reclaim", host=host, cores=cores)

    # ------------------------------------------------------------------
    # Protocol steps
    # ------------------------------------------------------------------

    def _next_id(self) -> str:
        mid = f"m{self._seq:05d}"
        self._seq += 1
        return mid

    def _finish_transfer(self, mid: str, seconds: float) -> None:
        open_ = self._open.get(mid)
        if open_ is None:  # pragma: no cover - defensive
            return
        platform = self._platform
        assert open_.new is not None
        platform.telemetry.emit(
            "migration.transfer",
            migration=mid,
            pe=open_.pe,
            replica=str(open_.new),
            seconds=seconds,
        )
        platform.set_activation(open_.new, True)
        if open_.action == "add":
            platform.telemetry.emit(
                "migration.done",
                migration=mid,
                pe=open_.pe,
                action="add",
                lost=0,
            )
            self._settle(mid, completed=True)
            return
        open_.phase = "dual"
        open_.handle = platform.env.schedule(
            DUAL_WINDOW, lambda: self._cutover(mid)
        )

    def _cutover(self, mid: str) -> None:
        open_ = self._open.get(mid)
        if open_ is None:  # pragma: no cover - defensive
            return
        platform = self._platform
        assert open_.old is not None and open_.new is not None
        old = platform.replica(open_.old)
        # Re-prove the post-cutover deployment right before committing:
        # the dual-running window may have eaten the cover we proved at
        # start time (e.g. the new replica's host was killed and the
        # abort raced a drain). Never fire-and-forget.
        survivors = sum(
            1
            for member in platform.group(open_.pe).members
            if member is not old and member.processable
        )
        if survivors < 1:
            self.abort(mid, "infeasible-cutover")
            return
        platform.telemetry.emit(
            "migration.cutover",
            migration=mid,
            pe=open_.pe,
            **{"from": str(open_.old), "to": str(open_.new)},
        )
        platform.detach_replica(open_.old)
        open_.phase = "drain"
        open_.handle = platform.env.schedule(
            DRAIN_GRACE, lambda: self._finish(mid)
        )

    def _finish(self, mid: str) -> None:
        open_ = self._open.get(mid)
        if open_ is None:  # pragma: no cover - defensive
            return
        platform = self._platform
        assert open_.old is not None
        old = platform.replica(open_.old)
        lost = (
            self._deactivate_counting_lost(open_.old) if old.active else 0
        )
        platform.telemetry.emit(
            "migration.done",
            migration=mid,
            pe=open_.pe,
            action=open_.action,
            lost=lost,
        )
        self._settle(mid, completed=True)

    def abort(self, mid: str, reason: str) -> None:
        """Roll back an open migration to the old deployment."""
        open_ = self._open.get(mid)
        if open_ is None:
            raise SimulationError(f"no open migration {mid!r}")
        if open_.phase == "drain":
            # Past the commit point: the old replica already left the
            # delivery set, so there is nothing to roll back to.
            raise SimulationError(
                f"migration {mid} is past cutover and cannot abort"
            )
        platform = self._platform
        if open_.handle is not None:
            open_.handle.cancel()
            open_.handle = None
        if open_.new is not None:
            new = platform.replica(open_.new)
            if new.active:
                platform.set_activation(open_.new, False)
            if new.group is not None:
                platform.detach_replica(open_.new)
        platform.telemetry.emit(
            "migration.abort", migration=mid, pe=open_.pe, reason=reason
        )
        self._settle(mid, completed=False)

    def _settle(self, mid: str, completed: bool) -> None:
        open_ = self._open.pop(mid, None)
        if open_ is None:  # pragma: no cover - defensive
            return
        if completed:
            self.completed += 1
        else:
            self.aborted += 1
        if open_.drain_host is not None:
            outstanding = self._drains.get(open_.drain_host)
            if outstanding is not None:
                outstanding.discard(mid)
                self._check_drained(open_.drain_host)

    # ------------------------------------------------------------------
    # Failure coupling
    # ------------------------------------------------------------------

    def _on_host_crash(self, host: str) -> None:
        for mid in tuple(self._open):
            open_ = self._open.get(mid)
            if open_ is None or open_.phase == "drain":
                continue
            if host in (open_.src, open_.dst):
                self.abort(mid, f"host.crash:{host}")
