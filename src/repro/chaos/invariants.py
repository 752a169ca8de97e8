"""Machine-checking LAAR's SLA invariants against a run's event log.

:func:`check_campaign` walks a campaign's event stream with the
:class:`~repro.obs.replay.FloorWalker` the streaming SLO tracker reads
too, so the two judges of the bound cannot disagree, and re-proves the
model's guarantees on every interval it labels. ``stats["seconds"]``
says how much of the run each label covered.

``ic-bound``
    On every ``checked`` interval the run's realized FIC rate (Eq. 7
    with realized phi) is at least the floor FT-Search proved for the
    reference strategy (while a migration window is open: the worse of
    the floors of the configurations it has spanned). This is the
    paper's a-priori IC lower bound, checked pointwise.
``host-capacity``
    Outside ``transition`` intervals the alive-and-active replicas on
    any host never demand more CPU cycles than it nominally has (Eq. 11).
``failover-span``
    Every finished failover span is bounded by the deterministic
    detection budget plus any time during which the PE had no
    alive-and-active replica at all (nobody to elect is the platform's
    problem, not the detector's).
``migration-rollback``
    A replica rolled back by an aborted migration is never elected.
``conservation``
    Per replica: ``received == processed + dropped + lost + queued``
    (see :func:`check_conservation`; counters come from the run digest).
``log-complete``
    The event ring evicted nothing — a precondition for all of the
    above; a truncated log fails loudly instead of passing vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Union

from repro.core.deployment import ReplicaId, ReplicatedDeployment
from repro.core.strategy import ActivationStrategy
from repro.dsps.metrics import conservation_gaps
from repro.obs.events import Event
from repro.obs.replay import EPS, STATE_EVENTS, TRANSITION, FloorWalker

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
    seconds = {"checked": 0.0, "transition": 0.0, "off_model": 0.0}
    stats: dict[str, Any] = {
        "seconds": seconds,
        "spans_checked": 0,
        "min_ic_margin": None,
        "migrations_seen": 0,
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
    rate_table = deployment.descriptor.rate_table
    walker = FloorWalker(
        deployment,
        run_strategy,
        reference_strategy,
        initial_config,
        command_latency,
    )
    state = walker.state
    # Per-PE [start, end) stretches with no alive-and-active replica,
    # used to excuse stretched failover spans.
    uncovered: dict[str, list[tuple[float, float]]] = {
        pe: [] for pe in deployment.descriptor.graph.pes
    }
    open_spans: dict[str, tuple[float, dict[str, Any]]] = {}
    finished_spans: list[tuple[float, float, dict[str, Any]]] = []

    def walk(until: float) -> None:
        for start, end, label, margin in walker.advance(until):
            seconds[label.replace("-", "_")] += end - start
            for pe, segments in uncovered.items():
                if not state.covered(pe):
                    if segments and segments[-1][1] >= start:
                        segments[-1] = (segments[-1][0], end)
                    else:
                        segments.append((start, end))
            if label == TRANSITION:
                # The stationary checks would compare mismatched states.
                continue
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
            if margin is None:
                continue
            low = stats["min_ic_margin"]
            if low is None or margin < low:
                stats["min_ic_margin"] = margin
            if margin < -EPS:
                in_force = state.migration_floor(walker.floors)
                dead = sorted(
                    str(r) for r, up in state.alive.items() if not up
                )
                dark = sorted(pe for pe in uncovered if not state.covered(pe))
                violations.append(
                    Violation(
                        invariant="ic-bound",
                        time=start,
                        detail=(
                            f"realized FIC rate {walker.realized():.4f} t/s"
                            f" < proven pessimistic floor {in_force:.4f}"
                            f" t/s in configuration {config} despite"
                            f" dominated failures (dead: {dead}; uncovered"
                            f" PEs: {dark})"
                        ),
                    )
                )

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
            walk(time)
            state.apply(time, type_, fields)
            if type_ == "migration.start":
                stats["migrations_seen"] += 1
    walk(horizon)

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
