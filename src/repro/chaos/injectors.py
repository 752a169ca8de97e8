"""The injector library: typed fault injections, the paper's own among them.

Each :class:`Injection` is a small immutable value — a kind, a start
time, and flat parameters — that :func:`apply_injection` turns into
scheduled calls on a :class:`~repro.dsps.platform.StreamPlatform`. Every
application emits one ``chaos.inject`` event through the platform's
telemetry, so a run's event log records the full injection schedule and
the invariant checker can replay it without any side channel.

Kinds
-----

``rack_crash``
    Correlated multi-host failure: every host of one rack crashes at the
    same instant and recovers together after ``downtime`` seconds — the
    regime Su & Zhou identify as where replication guarantees actually
    break (both replicas of a PE may share the rack).
``flap``
    Repeated crash/recover cycling of one host. Downtimes shorter than
    the detection timeout exercise the recovered-before-detected path of
    :class:`~repro.dsps.operators.ReplicaGroup`.
``slow_host``
    A straggler: the host stays up but delivers only ``factor`` of its
    nominal CPU cycles for ``duration`` seconds.
``replica_hang``
    One replica transiently stops processing and heartbeating (modelled
    as a crash with a scheduled restart); campaigns place it across a
    configuration-phase boundary so the hang spans a config switch.
``recovery_storm``
    Several hosts fail in a stagger and all recover at the same instant,
    producing a thundering herd of resyncs and re-elections.
``pessimistic``
    The paper's worst case as a scheduled event: the pessimistic victim
    of every PE (Sec. 4.4) crashes at ``at`` and never recovers. At
    ``at=0`` the victims are dead from the start: they crash before the
    first event and every election resolves at once, with no detection
    transient (Sec. 5.3's worst case).
``migration_strike``
    Aimed at the elasticity layer: at ``at``, if the tenant's
    :class:`~repro.elastic.migration.MigrationEngine` has a migration
    window open (state transfer or dual-running), the host on one side
    of the first such window crashes for ``downtime`` seconds — the
    engine must abort the window and roll back. A deterministic no-op
    when no window is open. Requires passing ``engine`` to
    :func:`apply_injection`; not part of the campaign generator's draw
    (seeded campaign digests stay stable). The elastic data plane
    fires it into its rebalancing tenants' moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.core.deployment import ReplicaId
from repro.core.strategy import ActivationStrategy
from repro.dsps.platform import StreamPlatform
from repro.errors import ChaosError

if TYPE_CHECKING:
    from repro.elastic.migration import MigrationEngine

__all__ = [
    "INJECTION_KINDS",
    "Injection",
    "apply_injection",
    "pessimistic_victims",
    "racks",
]

#: Injection kinds understood by :func:`apply_injection`, in the order
#: the campaign generator draws from; it never draws the last one.
INJECTION_KINDS = (
    "rack_crash",
    "flap",
    "slow_host",
    "replica_hang",
    "recovery_storm",
    "pessimistic",
    "migration_strike",
)

#: The times and spans an injection schedules by: each must be finite
#: and >= 0, or the kernel would be asked for a recovery in the past.
_TIME_PARAMS = ("at", "downtime", "duration", "period", "stagger")


@dataclass(frozen=True)
class Injection:
    """One scheduled fault: kind, start time, and flat parameters.

    ``params`` is a sorted tuple of ``(key, value)`` pairs where every
    value is a scalar or a tuple of strings — hashable, picklable, and
    JSON-roundtrippable, so schedules can ride inside campaign specs,
    worker results, and violation artifacts unchanged.
    """

    kind: str
    at: float
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in INJECTION_KINDS:
            raise ChaosError(
                f"unknown injection kind {self.kind!r};"
                f" expected one of {INJECTION_KINDS}"
            )
        for name, value in (("at", self.at), *self.params):
            if name in _TIME_PARAMS and not 0 <= value < math.inf:
                raise ChaosError(
                    f"injection {self.kind!r}: {name} must be >= 0 and"
                    f" finite, got {value!r}"
                )

    def param(self, key: str) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        raise ChaosError(
            f"injection {self.kind!r} has no parameter {key!r}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "at": self.at,
            "params": {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in self.params
            },
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "Injection":
        return cls.build(
            record["kind"], record["at"], **record.get("params", {})
        )

    @classmethod
    def build(cls, kind: str, at: float, **params: Any) -> "Injection":
        normalized = tuple(
            sorted(
                (key, tuple(value) if isinstance(value, list) else value)
                for key, value in params.items()
            )
        )
        return cls(kind=kind, at=at, params=normalized)


def pessimistic_victims(strategy: ActivationStrategy) -> dict[str, int]:
    """The replica of each PE that the pessimistic model kills.

    Assumption 2 of Sec. 4.4: unless all replicas are active in every
    configuration, the surviving replica is chosen among the inactive
    ones. With k = 2 that means: if some configuration runs the PE with a
    single active replica, the *active* one there is the victim (the
    survivor is the inactive one). If several configurations disagree,
    the victim is the replica whose death zeroes output in the most
    probable configurations — the strictly worst choice. For PEs that are
    fully replicated everywhere any victim is equivalent (replica 0).
    """
    deployment = strategy.deployment
    space = deployment.descriptor.configuration_space
    victims: dict[str, int] = {}
    for pe in deployment.descriptor.graph.pes:
        # Probability-weighted damage of killing each replica: the PE is
        # silenced in every configuration where the other replica is not
        # active.
        damage = []
        for victim in range(deployment.replication_factor):
            survivors = [
                r for r in deployment.replicas_of(pe) if r.replica != victim
            ]
            lost = sum(
                config.probability
                for config in space
                if not any(
                    strategy.is_active(survivor, config.index)
                    for survivor in survivors
                )
            )
            damage.append((lost, -victim))
        worst_loss, negative_index = max(damage)
        victims[pe] = -negative_index if worst_loss > 0 else 0
    return victims


def racks(
    host_names: Sequence[str], rack_size: int = 2
) -> tuple[tuple[str, ...], ...]:
    """Deterministic rack grouping: sorted hosts chunked by ``rack_size``.

    The simulated deployments carry no physical topology, so racks are a
    convention: adjacent hosts in sorted-name order share one. The
    grouping is pure, so the campaign generator and the replay of an
    artifact always agree on which hosts fail together.
    """
    if rack_size < 1:
        raise ChaosError(f"rack_size must be >= 1, got {rack_size}")
    ordered = sorted(host_names)
    return tuple(
        tuple(ordered[i:i + rack_size])
        for i in range(0, len(ordered), rack_size)
    )


def _check_hosts(platform: StreamPlatform, hosts: Sequence[str]) -> None:
    known = set(platform.deployment.host_names)
    unknown = [h for h in hosts if h not in known]
    if unknown:
        raise ChaosError(f"injection targets unknown host(s) {unknown}")


def apply_injection(
    platform: StreamPlatform,
    injection: Injection,
    strategy: Optional[ActivationStrategy] = None,
    engine: Optional["MigrationEngine"] = None,
) -> None:
    """Schedule one injection on the platform's simulation clock.

    ``strategy`` is required for ``pessimistic`` injections (the victim
    set is a function of the activation strategy); ``engine`` (a
    :class:`~repro.elastic.migration.MigrationEngine`) is required for
    ``migration_strike``. Emits one ``chaos.inject`` event immediately,
    so the schedule is part of the run's event stream header.
    """
    env = platform.env
    at = injection.at
    fields = dict(injection.params)
    params = injection.to_dict()["params"]
    platform.telemetry.emit(
        "chaos.inject", kind=injection.kind, at=at, **params
    )

    if injection.kind == "rack_crash":
        hosts = fields["hosts"]
        downtime = fields["downtime"]
        _check_hosts(platform, hosts)
        for host in hosts:
            env.schedule_at(at, lambda h=host: platform.crash_host(h))
            env.schedule_at(
                at + downtime, lambda h=host: platform.recover_host(h)
            )
    elif injection.kind == "flap":
        host = fields["host"]
        _check_hosts(platform, [host])
        period = fields["period"]
        downtime = fields["downtime"]
        if downtime >= period:
            raise ChaosError(
                f"flap downtime {downtime} must be shorter than its"
                f" period {period}"
            )
        for cycle in range(int(fields["cycles"])):
            start = at + cycle * period
            env.schedule_at(start, lambda h=host: platform.crash_host(h))
            env.schedule_at(
                start + downtime, lambda h=host: platform.recover_host(h)
            )
    elif injection.kind == "slow_host":
        host = fields["host"]
        _check_hosts(platform, [host])
        factor = fields["factor"]
        env.schedule_at(
            at, lambda: platform.degrade_host(host, factor)
        )
        env.schedule_at(
            at + fields["duration"], lambda: platform.restore_host(host)
        )
    elif injection.kind == "replica_hang":
        replica_id = ReplicaId.parse(fields["replica"])
        if replica_id not in set(platform.deployment.replicas):
            raise ChaosError(
                f"injection targets unknown replica {fields['replica']!r}"
            )
        env.schedule_at(
            at, lambda: platform.crash_replica(replica_id)
        )
        env.schedule_at(
            at + fields["duration"],
            lambda: platform.recover_replica(replica_id),
        )
    elif injection.kind == "recovery_storm":
        hosts = fields["hosts"]
        _check_hosts(platform, hosts)
        stagger = fields["stagger"]
        downtime = fields["downtime"]
        if downtime <= (len(hosts) - 1) * stagger:
            raise ChaosError(
                "recovery_storm downtime must outlast the crash stagger"
            )
        for position, host in enumerate(hosts):
            env.schedule_at(
                at + position * stagger,
                lambda h=host: platform.crash_host(h),
            )
        for host in hosts:
            env.schedule_at(
                at + downtime, lambda h=host: platform.recover_host(h)
            )
    elif injection.kind == "pessimistic":
        if strategy is None:
            raise ChaosError(
                "pessimistic injections need the activation strategy"
            )
        victims = pessimistic_victims(strategy)
        for pe, victim in sorted(victims.items()):
            replica_id = ReplicaId(pe, victim)
            if at == 0.0:
                platform.crash_replica(replica_id)
                platform.group(pe).elect_now()
            else:
                env.schedule_at(
                    at, lambda r=replica_id: platform.crash_replica(r)
                )
    elif injection.kind == "migration_strike":
        if engine is None:
            raise ChaosError(
                "migration_strike injections need the migration engine"
            )
        downtime = fields["downtime"]

        def _strike() -> None:
            for mid in engine.open_migrations:
                _pe, src, dst, phase = engine.window(mid)
                if phase == "drain":
                    continue  # past the commit point: not abortable
                target = dst or src
                platform.crash_host(target)
                env.schedule(
                    downtime, lambda h=target: platform.recover_host(h)
                )
                return

        env.schedule_at(at, _strike)
    else:  # pragma: no cover - guarded by Injection.__post_init__
        raise ChaosError(f"unknown injection kind {injection.kind!r}")
