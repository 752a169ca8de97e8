"""Machine-checking LAAR's SLA invariants against a run's event log.

:func:`check_campaign` replays a campaign's event stream into a sequence
of *intervals* of constant platform state — the current input
configuration, the set of alive replicas, the set of active replicas —
and re-proves the model's guarantees on every interval. The replayed
state and the floor in force come from :mod:`repro.obs.replay`, which
the streaming SLO trackers hold too, so the two judges of the bound
cannot disagree on either:

``ic-bound``
    Whenever the realized failures are *dominated* by the pessimistic
    model (at most one dead replica per PE — the model's per-PE victim),
    the instantaneous failure-aware throughput of the run, computed by
    the Eq. 7 recursion with the realized phi, must be at least the
    pessimistic throughput FT-Search proved for the reference strategy
    (while a migration window is open: the worse of the floors of the
    configurations it has spanned). This is the paper's a-priori IC
    lower bound, checked pointwise.
``host-capacity``
    The alive-and-active replicas on any host never demand more CPU
    cycles than the host nominally has (Eq. 11).
``failover-span``
    Every finished failover span is bounded by the deterministic
    detection budget plus any time during which the PE had no
    alive-and-active replica at all (nobody to elect is the platform's
    problem, not the detector's).
``conservation``
    Per replica: ``received == processed + dropped + lost + queued``
    (see :func:`check_conservation`; counters come from the run digest).
``log-complete``
    The event ring evicted nothing — a precondition for all of the
    above; a truncated log fails loudly instead of passing vacuously.

Intervals that overlap a configuration-switch transition window (the
``command_latency`` gap between the switch decision and its activation
commands landing) are excluded from the ``ic-bound`` and
``host-capacity`` checks: during that gap the platform is legitimately
executing the *previous* configuration's activation set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Union

from repro.core.deployment import ReplicaId, ReplicatedDeployment
from repro.core.strategy import ActivationStrategy
from repro.dsps.metrics import conservation_gaps
from repro.obs.events import Event
from repro.obs.replay import EPS, STATE_EVENTS, DeploymentState, ProvenFloor

__all__ = [
    "Violation",
    "CheckResult",
    "check_campaign",
    "check_conservation",
]

#: Slack appended to failover-span budgets for same-instant event ties.
_SPAN_EPS = 1e-6


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which invariant, when, and the evidence."""

    invariant: str
    time: float
    detail: str


@dataclass(frozen=True)
class CheckResult:
    """The verdict of one campaign replay."""

    ok: bool
    violations: tuple[Violation, ...]
    stats: dict[str, Any] = field(default_factory=dict)

    def first(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None


def _normalize(
    events: Iterable[Union[Event, Mapping[str, Any]]],
) -> list[tuple[int, float, str, dict[str, Any]]]:
    """Events (objects or parsed JSONL dicts) as (seq, t, type, fields)."""
    out = []
    for event in events:
        if isinstance(event, Event):
            out.append((event.seq, event.time, event.type, event.fields))
        else:
            fields = {
                key: value
                for key, value in event.items()
                if key not in ("seq", "t", "type")
            }
            out.append(
                (event["seq"], event["t"], event["type"], fields)
            )
    out.sort(key=lambda item: item[0])
    return out


def check_conservation(
    conservation: Mapping[str, Mapping[str, int]],
    time: float = 0.0,
) -> list[Violation]:
    """Tuple conservation per replica from the run digest's counters.

    Every tuple a replica ever enqueued is accounted for exactly once:
    processed, dropped at the port, lost to a crash/deactivation, or
    still queued (in-flight work counts as queued) at the horizon.
    """
    return [
        Violation("conservation", time, f"replica {replica}: {gap}")
        for replica, gap in conservation_gaps(conservation)
    ]


def check_campaign(
    events: Iterable[Union[Event, Mapping[str, Any]]],
    deployment: ReplicatedDeployment,
    run_strategy: ActivationStrategy,
    reference_strategy: ActivationStrategy,
    initial_config: int,
    *,
    command_latency: float,
    detection_bound: float,
    horizon: float,
    conservation: Optional[Mapping[str, Mapping[str, int]]] = None,
    evicted: int = 0,
) -> CheckResult:
    """Replay one campaign's event log and re-prove the SLA invariants.

    ``events`` may be :class:`~repro.obs.events.Event` objects or parsed
    JSONL dicts — artifacts replay from disk through the same code path
    as live runs. ``reference_strategy`` is the FT-Search-proven
    strategy whose pessimistic bound the run is held to (usually the run
    strategy itself). Returns every violation, in event order, so the
    artifact writer can window the log around the first one.
    """
    violations: list[Violation] = []
    stats: dict[str, Any] = {
        "intervals": 0,
        "intervals_checked": 0,
        "intervals_transition": 0,
        "intervals_not_dominated": 0,
        "spans_checked": 0,
        "min_ic_margin": None,
    }

    if evicted > 0:
        violations.append(
            Violation(
                invariant="log-complete",
                time=0.0,
                detail=(
                    f"event ring evicted {evicted} events; the replay"
                    " would be incomplete (raise event_buffer)"
                ),
            )
        )
        return CheckResult(False, tuple(violations), stats)

    capacity = {h.name: h.capacity for h in deployment.hosts}
    hosts = sorted(capacity)
    floor = ProvenFloor(deployment, reference_strategy)
    rate_table = deployment.descriptor.rate_table
    state = DeploymentState(
        deployment,
        run_strategy.active_map(initial_config),
        initial_config,
        command_latency,
    )
    # Per-PE [start, end) stretches with no alive-and-active replica,
    # used to excuse stretched failover spans.
    uncovered: dict[str, list[tuple[float, float]]] = {
        pe: [] for pe in deployment.descriptor.graph.pes
    }
    open_spans: dict[str, tuple[float, dict[str, Any]]] = {}
    finished_spans: list[tuple[float, float, dict[str, Any]]] = []

    def check_interval(start: float, end: float) -> None:
        if end <= start:
            return
        stats["intervals"] += 1
        for pe, segments in uncovered.items():
            if not state.covered(pe):
                if segments and segments[-1][1] >= start:
                    segments[-1] = (segments[-1][0], end)
                else:
                    segments.append((start, end))
        # Activation commands from the last config switch are still in
        # flight: the platform legitimately runs the previous
        # configuration's activation set, so the stationary checks
        # would compare mismatched states.
        if start + EPS < state.transition_until:
            stats["intervals_transition"] += 1
            if end > state.transition_until + EPS:
                # No event marks the commands landing, so the in-flight
                # window ends mid-interval: resume the stationary checks
                # from that point instead of skipping the whole tail.
                check_interval(state.transition_until, end)
            return
        config = state.config
        for host in hosts:
            load = sum(
                rate_table.replica_load(replica.pe, config)
                for replica in state.residents(host)
                if state.alive[replica] and state.active[replica]
            )
            if load > capacity[host] + EPS:
                violations.append(
                    Violation(
                        invariant="host-capacity",
                        time=start,
                        detail=(
                            f"host {host} loaded {load:.3f} cycles/s"
                            f" > capacity {capacity[host]:.3f} in"
                            f" configuration {config}"
                        ),
                    )
                )
        margin = floor.margin(state)
        if margin is None:
            stats["intervals_not_dominated"] += 1
            return
        stats["intervals_checked"] += 1
        if stats["min_ic_margin"] is None or margin < stats["min_ic_margin"]:
            stats["min_ic_margin"] = margin
        if margin < -EPS:
            fic_real = floor.realized(state)
            in_force = state.migration_floor(floor.floors)
            dead = sorted(
                str(r) for r, up in state.alive.items() if not up
            )
            dark = sorted(pe for pe in uncovered if not state.covered(pe))
            violations.append(
                Violation(
                    invariant="ic-bound",
                    time=start,
                    detail=(
                        f"realized FIC rate {fic_real:.4f} t/s <"
                        f" proven pessimistic floor {in_force:.4f} t/s in"
                        f" configuration {config} despite dominated"
                        f" failures (dead: {dead}; uncovered PEs:"
                        f" {dark})"
                    ),
                )
            )

    cursor = 0.0
    for _, time, type_, fields in _normalize(events):
        if type_ == "span.start" and fields.get("name") == "failover":
            open_spans[fields["span"]] = (time, dict(fields))
            continue
        if type_ == "span.end" and fields.get("name") == "failover":
            started = open_spans.pop(fields["span"], None)
            if started is not None:
                merged = dict(started[1])
                merged.update(fields)
                finished_spans.append((started[0], time, merged))
            continue
        if type_ == "primary.elected":
            # The rollback invariant: a replica removed by an aborted
            # migration left the delivery set for good — electing it
            # primary later means the rollback was not atomic.
            elected = ReplicaId.parse(fields["replica"])
            if elected in state.rolled_back:
                violations.append(
                    Violation(
                        invariant="migration-rollback",
                        time=time,
                        detail=(
                            f"replica {elected} was rolled back by an"
                            " aborted migration but was elected primary"
                            f" of {fields.get('pe', elected.pe)}"
                        ),
                    )
                )
            continue
        if type_ in STATE_EVENTS:
            check_interval(cursor, time)
            cursor = max(cursor, time)
            state.apply(time, type_, fields)
            if type_.startswith("migration."):
                stats["migrations_seen"] = stats.get("migrations_seen", 0) + (
                    1 if type_ == "migration.start" else 0
                )
    check_interval(cursor, horizon)

    # Finished failover spans: detection budget plus any time the PE
    # had nobody alive-and-active to elect. Spans still open at the
    # horizon are censored, not violations.
    for start, end, fields in finished_spans:
        stats["spans_checked"] += 1
        pe = fields.get("pe", "")
        excused = 0.0
        for seg_start, seg_end in uncovered.get(pe, []):
            overlap = min(end, seg_end) - max(start, seg_start)
            if overlap > 0:
                excused += overlap
        duration = end - start
        budget = detection_bound + excused + _SPAN_EPS
        if duration > budget:
            violations.append(
                Violation(
                    invariant="failover-span",
                    time=start,
                    detail=(
                        f"failover of {fields.get('replica', pe)} took"
                        f" {duration:.3f}s > detection bound"
                        f" {detection_bound:.3f}s + {excused:.3f}s"
                        f" without any live active replica"
                    ),
                )
            )
    stats["spans_open"] = len(open_spans)

    if conservation is not None:
        violations.extend(check_conservation(conservation, time=horizon))

    violations.sort(key=lambda v: (v.time, v.invariant))
    return CheckResult(not violations, tuple(violations), stats)
