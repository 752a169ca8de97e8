"""One replayed deployment state, one judge of the proven floor.

How a run's event stream becomes deployment state, and how each stretch
of the run stands against the proven IC floor, is decided here and
nowhere else. :class:`DeploymentState` folds the :data:`STATE_EVENTS`;
:class:`FloorWalker` owns one, with the per-configuration floors, and
labels every interval ``checked`` (with its margin), ``transition`` or
``off-model``. Both judges of the bound read the walker: the streaming
``FloorAvailability`` (:mod:`repro.obs.slo`) sums the checked seconds
below the floor, and the post-hoc ``check_campaign``
(:mod:`repro.chaos.invariants`) turns the same intervals into
violations, adding only what is its own: host capacity, failover spans,
rollback and violation wording.

:data:`STATE_EVENTS` is generated from the handler table, so a new
state event is added in one place: a handler method and its table row.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Optional

from repro.core.deployment import ReplicaId, ReplicatedDeployment
from repro.core.ic import failure_aware_rates, pessimistic_phi
from repro.core.strategy import ActivationStrategy

__all__ = ["EPS", "STATE_EVENTS", "DeploymentState", "FloorWalker"]
__all__ += ["CHECKED", "TRANSITION", "OFF_MODEL"]

#: Absolute tolerance for rate and load comparisons. Both sides of every
#: comparison are derived from the same rate table, so violations are
#: structural, never numerical — the epsilon only absorbs float noise.
EPS = 1e-9

#: The labels :meth:`FloorWalker.advance` puts on an interval.
CHECKED = "checked"
TRANSITION = "transition"
OFF_MODEL = "off-model"

_Fields = Mapping[str, Any]


class DeploymentState:
    """Event-sourced deployment state: config, liveness, membership."""

    def __init__(
        self,
        deployment: ReplicatedDeployment,
        initial_active: Optional[Mapping[ReplicaId, bool]] = None,
        initial_config: int = 0,
        command_latency: float = 0.0,
    ) -> None:
        self.command_latency = command_latency
        self.config = initial_config
        #: End of the current switch transition window (activation
        #: commands still in flight before this instant).
        self.transition_until = float("-inf")
        self.alive: dict[ReplicaId, bool] = {
            replica: True for replica in deployment.replicas
        }
        if initial_active is None:
            self.active: dict[ReplicaId, bool] = {
                replica: True for replica in deployment.replicas
            }
        else:
            self.active = dict(initial_active)
        # Membership and placement are *dynamic*: migrations attach and
        # detach replicas at runtime, so both are learned from the event
        # stream on top of the deployment's static seed.
        self.by_pe: dict[str, list[ReplicaId]] = {
            pe: list(deployment.replicas_of(pe))
            for pe in deployment.descriptor.graph.pes
        }
        self.host_of: dict[ReplicaId, str] = {
            replica: deployment.host_of(replica)
            for replica in deployment.replicas
        }
        #: Open migrations: id -> (attached replica, config at start).
        #: The replica tells an abort which member to roll back out of
        #: the set; the config feeds the worse-of-two-deployments floor.
        self.open_migrations: dict[str, tuple[Optional[ReplicaId], int]] = {}
        #: Replicas rolled back by an aborted migration — they must
        #: never rejoin the delivery set (the rollback invariant).
        self.rolled_back: set[ReplicaId] = set()
        self._covered: set[str] = set()
        self._touched: set[str] = set(self.by_pe)

    def residents(self, host: str) -> list[ReplicaId]:
        return sorted(
            replica
            for replica, name in self.host_of.items()
            if name == host
        )

    def _set(self, flags: dict, replica: ReplicaId, value: bool) -> None:
        flags[replica] = value
        self._touched.add(replica.pe)

    def _attach(self, replica: ReplicaId, host: str) -> None:
        members = self.by_pe.setdefault(replica.pe, [])
        if replica not in members:
            members.append(replica)
            members.sort()
        self._set(self.alive, replica, True)
        self.active.setdefault(replica, False)
        self.host_of[replica] = host

    def _detach(self, replica: ReplicaId) -> None:
        self._touched.add(replica.pe)
        members = self.by_pe.get(replica.pe)
        if members is not None and replica in members:
            members.remove(replica)
        self.host_of.pop(replica, None)
        # Forget its flags too: a replica that died mid-migration and
        # was rolled back must not read as "degraded" forever after.
        self.alive.pop(replica, None)
        self.active.pop(replica, None)

    def apply(self, time: float, type_: str, fields: _Fields) -> None:
        """Fold one of the :data:`STATE_EVENTS` into the state."""
        _HANDLERS[type_](self, time, fields)

    def _replica_crash(self, time: float, fields: _Fields) -> None:
        self._set(self.alive, ReplicaId.parse(fields["replica"]), False)

    def _replica_recover(self, time: float, fields: _Fields) -> None:
        self._set(self.alive, ReplicaId.parse(fields["replica"]), True)

    def _host_crash(self, time: float, fields: _Fields) -> None:
        for replica in self.residents(fields["host"]):
            self._set(self.alive, replica, False)

    def _host_recover(self, time: float, fields: _Fields) -> None:
        for replica in self.residents(fields["host"]):
            self._set(self.alive, replica, True)

    def _replica_activate(self, time: float, fields: _Fields) -> None:
        self._set(self.active, ReplicaId.parse(fields["replica"]), True)

    def _replica_deactivate(self, time: float, fields: _Fields) -> None:
        self._set(self.active, ReplicaId.parse(fields["replica"]), False)

    def _config_switch(self, time: float, fields: _Fields) -> None:
        self.config = int(fields["to"])
        self.transition_until = time + self.command_latency

    def _migration_start(self, time: float, fields: _Fields) -> None:
        replica = ReplicaId.parse(fields["replica"])
        action = fields["action"]
        if action in ("move", "add"):
            self._attach(replica, fields["dst"])
            self.open_migrations[fields["migration"]] = (replica, self.config)
        elif action == "remove":
            self._detach(replica)
            self.open_migrations[fields["migration"]] = (None, self.config)

    def _migration_cutover(self, time: float, fields: _Fields) -> None:
        self._detach(ReplicaId.parse(fields["from"]))

    def _migration_abort(self, time: float, fields: _Fields) -> None:
        entry = self.open_migrations.pop(fields["migration"], None)
        if entry is not None and entry[0] is not None:
            self._detach(entry[0])
            self.rolled_back.add(entry[0])

    def _migration_done(self, time: float, fields: _Fields) -> None:
        self.open_migrations.pop(fields["migration"], None)

    def covered(self, pe: str) -> bool:
        alive = self.alive
        active = self.active
        return any(alive[r] and active[r] for r in self.by_pe[pe])

    def covered_count(self) -> int:
        """Covered PEs, re-deriving only those touched since last call."""
        touched, self._touched = self._touched, set()
        self._covered.difference_update(touched)
        self._covered.update(
            pe for pe in touched if pe in self.by_pe and self.covered(pe)
        )
        return len(self._covered)

    def dominated(self) -> bool:
        """Realized failures no worse than the pessimistic model's.

        The pessimistic model kills exactly one (damage-maximal) replica
        per PE, so the realized state is dominated whenever no PE has
        lost more than one replica.
        """
        alive = self.alive
        return all(
            sum(1 for r in members if not alive[r]) <= 1
            for members in self.by_pe.values()
        )

    def degraded(self) -> bool:
        return not all(self.alive.values())

    def realized_phi(self) -> dict[str, float]:
        return {pe: 1.0 if self.covered(pe) else 0.0 for pe in self.by_pe}

    def migration_floor(self, floors: Mapping[int, float]) -> float:
        """The floor in force now, out of per-configuration ``floors``.

        Outside migration windows this is the current configuration's
        proven pessimistic floor. Inside one, the run is held to the
        *worse* (lower) of the floors of the configurations the window
        has spanned — a failover during dual-running may legitimately
        land on either the old or the new deployment, and neither can
        be expected to beat both.
        """
        floor = floors[self.config]
        for _, start_config in self.open_migrations.values():
            floor = min(floor, floors[start_config])
        return floor


_HANDLERS: dict[str, Callable[[DeploymentState, float, _Fields], None]] = {
    "replica.crash": DeploymentState._replica_crash,
    "replica.recover": DeploymentState._replica_recover,
    "host.crash": DeploymentState._host_crash,
    "host.recover": DeploymentState._host_recover,
    "replica.activate": DeploymentState._replica_activate,
    "replica.deactivate": DeploymentState._replica_deactivate,
    "config.switch": DeploymentState._config_switch,
    "migration.start": DeploymentState._migration_start,
    "migration.cutover": DeploymentState._migration_cutover,
    "migration.abort": DeploymentState._migration_abort,
    "migration.done": DeploymentState._migration_done,
}

#: Event types that change deployment state: liveness, activation, the
#: input configuration, and — migrations — the *membership* a PE's
#: coverage is judged over.
STATE_EVENTS = frozenset(_HANDLERS)


class FloorWalker:
    """The one judge of the a-priori IC lower bound (Sec. 4.4).

    Owns a run's :class:`DeploymentState` and, per configuration, the
    floor the reference strategy proved: its FIC rate under Eq. 14, from
    the same :mod:`repro.core.ic` code as the IC metric, so the floors
    weighted by P_C and divided by BIC are the IC FT-Search proved.
    :meth:`advance` labels the time since the last call; it is a
    generator, so the cursor moves only once it is iterated. Callers
    advance to an event's time, then ``walker.state.apply(...)`` it.
    """

    def __init__(
        self,
        deployment: ReplicatedDeployment,
        run_strategy: ActivationStrategy,
        reference: ActivationStrategy,
        initial_config: int = 0,
        command_latency: float = 0.0,
    ) -> None:
        self.deployment = deployment
        self.state = DeploymentState(
            deployment,
            run_strategy.active_map(initial_config),
            initial_config,
            command_latency,
        )
        self.floors = {
            c: failure_aware_rates(
                deployment, c, pessimistic_phi(reference, c)
            )[1]
            for c in range(len(deployment.descriptor.configuration_space))
        }
        self.cursor = 0.0

    def realized(self) -> float:
        """The run's instantaneous FIC rate (Eq. 6/7 with realized phi)."""
        state = self.state
        return failure_aware_rates(
            self.deployment, state.config, state.realized_phi()
        )[1]

    def advance(
        self, until: float
    ) -> Iterator[tuple[float, float, str, Optional[float]]]:
        """``(start, end, label, margin)`` tiling ``[cursor, until)``.

        ``transition`` while the last switch's activation commands are
        in flight: the platform legitimately runs the previous
        configuration's activation set. No event marks the commands
        landing, so an interval that outlasts them is cut there and its
        tail judged. ``off-model`` while realized failures are beyond
        the pessimistic model (more than one dead replica in some PE):
        the contract makes no promise there. Otherwise ``checked``, with
        the realized rate minus the floor in force as margin; the bound
        is broken below ``-EPS``.
        """
        start = self.cursor
        if until <= start:
            return
        self.cursor = until
        state = self.state
        edge = state.transition_until
        if start + EPS < edge:
            if until <= edge + EPS:
                yield start, until, TRANSITION, None
                return
            yield start, edge, TRANSITION, None
            start = edge
        if not state.dominated():
            yield start, until, OFF_MODEL, None
        else:
            margin = self.realized() - state.migration_floor(self.floors)
            yield start, until, CHECKED, margin
