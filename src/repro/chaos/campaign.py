"""Campaign specs and the seeded schedule generator.

A :class:`CampaignSpec` is the complete, picklable description of one
chaos run: which bundle and strategy to load, the platform and
middleware knobs, and a campaign seed. :func:`generate_schedule` expands
the seed deterministically into a list of injections placed relative to
the input-configuration phases of the run's two-level trace — inside the
High burst, spanning a Low↔High boundary, or in the quiet tails — so the
same spec always reproduces the same faults, byte for byte, at any
worker count.

Specs can also carry an *explicit* ``schedule`` (overriding the seed
expansion): the minimizer re-runs subsets of a schedule this way, and
:func:`paper_schedule` pins the paper's three failure modes (Sec. 5.3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.chaos.injectors import INJECTION_KINDS, Injection, racks
from repro.core.deployment import ReplicatedDeployment
from repro.core.strategy import ActivationStrategy
from repro.dsps.platform import PlatformConfig
from repro.dsps.traces import InputTrace, two_level_trace
from repro.errors import ChaosError
from repro.laar.middleware import MiddlewareConfig
from repro.workloads.corpus import load_bundle

__all__ = [
    "PAPER_MODES",
    "CampaignSpec",
    "detection_bound",
    "generate_schedule",
    "paper_campaigns",
    "paper_schedule",
    "sabotage_strategy",
]

#: The failure modes of Sec. 5.3, in report order: a clean run, the
#: pessimistic worst case (Sec. 4.4), and one host crash in a High window.
PAPER_MODES = ("none", "worst", "crash")

#: Slack added on top of the deterministic detection latency when the
#: spec does not fix an explicit bound: command propagation plus a small
#: epsilon for boundary ties on the heartbeat grid.
_DETECTION_SLACK = 0.25


@dataclass(frozen=True)
class CampaignSpec:
    """One chaos campaign (paths and scalars only: picklable).

    ``strategy`` is the activation strategy the run executes;
    ``reference_strategy`` (default: the same file) is the FT-Search
    *proven* strategy whose pessimistic bound the invariant checker
    holds the run to. They differ only in sabotage self-tests, where a
    deliberately broken strategy runs against the proven reference.
    """

    bundle: str
    strategy: str
    seed: int
    reference_strategy: Optional[str] = None
    duration: float = 48.0
    n_injections: int = 3
    jitter: float = 0.35
    queue_seconds: float = 2.0
    heartbeat_interval: Optional[float] = None
    failover_delay: float = 1.0
    monitor_interval: float = 2.0
    command_latency: float = 0.05
    rate_tolerance: float = 0.25
    down_confirmation: int = 2
    event_buffer: int = 1 << 20
    rack_size: int = 2
    batching: bool = False
    tuple_trace_every: int = 0
    schedule: Optional[tuple[Injection, ...]] = field(default=None)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ChaosError("campaign duration must be > 0")
        if self.n_injections < 0:
            raise ChaosError("n_injections must be >= 0")
        if self.schedule is not None:
            object.__setattr__(self, "schedule", tuple(self.schedule))

    def platform_config(self) -> PlatformConfig:
        """The platform knobs of this campaign."""
        return PlatformConfig(
            failover_delay=self.failover_delay,
            queue_seconds=self.queue_seconds,
            arrival_jitter=self.jitter,
            heartbeat_interval=self.heartbeat_interval,
            seed=self.seed,
            event_buffer=self.event_buffer,
            tuple_trace_every=self.tuple_trace_every,
            batching=self.batching,
        )

    def middleware_config(self) -> MiddlewareConfig:
        """The LAAR middleware knobs of this campaign."""
        return MiddlewareConfig(
            monitor_interval=self.monitor_interval,
            command_latency=self.command_latency,
            rate_tolerance=self.rate_tolerance,
            down_confirmation=self.down_confirmation,
        )

    @property
    def detection_bound(self) -> float:
        """The failover-span budget the invariant checker enforces."""
        return detection_bound(
            self.platform_config(), self.middleware_config()
        )


def detection_bound(
    platform: PlatformConfig, middleware: MiddlewareConfig
) -> float:
    """The failover-span budget of a run under these two configs.

    Abstract detection resolves exactly ``failover_delay`` after a
    crash; emergent heartbeat detection adds up to two intervals (one
    for the staleness check to trip, one for grid alignment). The
    paper's 16 s detect-and-migrate window is the same bound at Streams'
    production timeouts.
    """
    emergent = 2.0 * (platform.heartbeat_interval or 0.0)
    return (
        platform.failover_delay
        + emergent
        + middleware.command_latency
        + _DETECTION_SLACK
    )


def _window_time(
    rng: random.Random,
    windows: list[tuple[float, float]],
    lo: float,
    hi: float,
) -> float:
    """A time inside a random window, clamped into [lo, hi]."""
    if windows:
        start, end = windows[rng.randrange(len(windows))]
        t = rng.uniform(start, end)
    else:
        t = rng.uniform(lo, hi)
    return min(max(t, lo), hi)


def generate_schedule(
    spec: CampaignSpec,
    deployment: ReplicatedDeployment,
    trace: InputTrace,
) -> tuple[Injection, ...]:
    """Expand the campaign seed into a deterministic injection schedule.

    Kinds are drawn round-robin-free from the full library; placements
    lean on the trace's phase structure (crashes prefer High windows
    where the guarantees are weakest, hangs straddle a phase boundary so
    they span a configuration switch). At most one ``pessimistic``
    injection is kept — its victims never recover, so repeating it is a
    no-op.
    """
    rng = random.Random(spec.seed)
    hosts = sorted(deployment.host_names)
    replicas = sorted(str(r) for r in deployment.replicas)
    high_windows = trace.segment_windows("High")
    boundaries = [start for start, _ in high_windows if start > 0]
    lo, hi = 1.0, max(1.5, spec.duration - 1.0)
    host_racks = racks(hosts, spec.rack_size)

    schedule: list[Injection] = []
    seen_pessimistic = False
    for _ in range(spec.n_injections):
        kind = rng.choice(INJECTION_KINDS[:-1])  # no migration_strike
        if kind == "rack_crash":
            rack = host_racks[rng.randrange(len(host_racks))]
            if len(rack) >= len(hosts):
                # Never take the whole cluster down with one rack: keep
                # the campaign inside the regime the bound speaks about.
                rack = rack[:-1] or (hosts[0],)
            schedule.append(
                Injection.build(
                    "rack_crash",
                    at=round(_window_time(rng, high_windows, lo, hi), 3),
                    hosts=tuple(rack),
                    downtime=round(rng.uniform(3.0, 8.0), 3),
                )
            )
        elif kind == "flap":
            period_gap = rng.uniform(1.0, 3.0)
            downtime = round(
                rng.uniform(0.2, 2.0) * spec.failover_delay, 3
            )
            schedule.append(
                Injection.build(
                    "flap",
                    at=round(rng.uniform(lo, hi), 3),
                    host=rng.choice(hosts),
                    cycles=rng.randint(2, 4),
                    period=round(downtime + period_gap, 3),
                    downtime=downtime,
                )
            )
        elif kind == "slow_host":
            schedule.append(
                Injection.build(
                    "slow_host",
                    at=round(rng.uniform(lo, hi), 3),
                    host=rng.choice(hosts),
                    factor=round(rng.uniform(0.3, 0.7), 3),
                    duration=round(rng.uniform(5.0, 12.0), 3),
                )
            )
        elif kind == "replica_hang":
            if boundaries:
                at = rng.choice(boundaries) - rng.uniform(0.5, 2.0)
            else:
                at = rng.uniform(lo, hi)
            schedule.append(
                Injection.build(
                    "replica_hang",
                    at=round(min(max(at, lo), hi), 3),
                    replica=rng.choice(replicas),
                    duration=round(rng.uniform(3.0, 6.0), 3),
                )
            )
        elif kind == "recovery_storm":
            count = min(len(hosts), rng.randint(2, 3))
            if count >= len(hosts) > 1:
                count = len(hosts) - 1
            chosen = tuple(sorted(rng.sample(hosts, count)))
            stagger = round(rng.uniform(0.2, 1.0), 3)
            schedule.append(
                Injection.build(
                    "recovery_storm",
                    at=round(_window_time(rng, high_windows, lo, hi), 3),
                    hosts=chosen,
                    stagger=stagger,
                    downtime=round(
                        (count - 1) * stagger + rng.uniform(3.0, 6.0), 3
                    ),
                )
            )
        else:  # pessimistic
            if seen_pessimistic:
                continue
            seen_pessimistic = True
            schedule.append(
                Injection.build(
                    "pessimistic",
                    at=round(_window_time(rng, high_windows, lo, hi), 3),
                )
            )
    schedule.sort(key=lambda inj: (inj.at, inj.kind))
    return tuple(schedule)


def paper_schedule(
    mode: str,
    deployment: ReplicatedDeployment,
    trace: InputTrace,
    rng: random.Random,
) -> tuple[Injection, ...]:
    """One of :data:`PAPER_MODES` as an injection schedule.

    ``none`` injects nothing; ``worst`` kills every PE's pessimistic
    victim before the first event (``pessimistic`` at 0); ``crash`` takes
    one random host down for 16 s at a random instant of a random High
    window — where LAAR's guarantees are weakest — leaving room for the
    downtime inside the window when the window is long enough.
    """
    if mode not in PAPER_MODES:
        raise ChaosError(
            f"unknown failure mode {mode!r}; expected one of {PAPER_MODES}"
        )
    if mode == "none":
        return ()
    if mode == "worst":
        return (Injection.build("pessimistic", at=0.0),)
    downtime = 16.0  # Streams' detect-and-migrate window
    high_windows = trace.segment_windows("High")
    if not high_windows:
        raise ChaosError("no High windows to place the crash in")
    host = rng.choice(sorted(deployment.host_names))
    start, end = high_windows[rng.randrange(len(high_windows))]
    latest = max(start, end - downtime)
    at = rng.uniform(start, latest) if latest > start else start
    return (
        Injection.build("rack_crash", at=at, hosts=(host,), downtime=downtime),
    )


def paper_campaigns(
    base: CampaignSpec, modes: Sequence[str]
) -> list[CampaignSpec]:
    """``base`` once per paper mode, each pinning its :func:`paper_schedule`
    over the bundle's trace; the crash draw is seeded by ``base.seed``."""
    app = load_bundle(base.bundle)
    trace = two_level_trace(
        app.low_rate, app.high_rate, duration=base.duration
    )
    return [
        replace(
            base,
            schedule=paper_schedule(
                mode, app.deployment, trace, random.Random(base.seed)
            ),
        )
        for mode in modes
    ]


def sabotage_strategy(
    reference: ActivationStrategy,
    prefer_config: int = 0,
) -> tuple[ActivationStrategy, str, int]:
    """Break a proven strategy *below* its pessimistic IC bound.

    Deactivates one replica of the first PE that the reference strategy
    keeps fully replicated in ``prefer_config`` (falling back to later
    configurations), which silently forfeits that PE's pessimistic
    guarantee: the pessimistic victim there becomes the only active
    replica, so the proven bound no longer holds once the victim dies.
    Returns ``(broken strategy, pe, config index)`` so tests and the CLI
    self-test know which cell was sabotaged.
    """
    deployment = reference.deployment
    space = deployment.descriptor.configuration_space
    order = [prefer_config] + [
        c for c in range(len(space)) if c != prefer_config
    ]
    for config_index in order:
        for pe in deployment.descriptor.graph.pes:
            if reference.fully_replicated(pe, config_index):
                victim = deployment.replicas_of(pe)[0]
                broken = reference.replace(
                    {(victim, config_index): False}
                ).with_name(f"{reference.name}-sabotaged")
                return broken, pe, config_index
    raise ChaosError(
        "reference strategy keeps no PE fully replicated anywhere:"
        " nothing to sabotage"
    )
