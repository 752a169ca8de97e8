"""The autoscaled diurnal dataplane: the elastic twin of the fleet run.

Reuses the fleet dataplane's tenants verbatim — same apps, same
staggered High bursts, same chaos injections — and adds the elasticity
layer on top: every tenant gets a :class:`MigrationEngine` and an
:class:`Autoscaler` driven by its own diurnal calendar. Tenant roles
rotate deterministically:

* every :data:`CONSOLIDATE_EVERY`-th tenant runs night consolidation
  (standby removal + host drain + reclaim) during its trough;
* every other odd tenant rebalances — one full live migration
  (transfer / dual-running / cutover) after its peak;
* every ``chaos_every``-th-ish rebalancer *also* gets a
  ``migration_strike`` injection (:mod:`repro.chaos.injectors`): a host
  kill aimed into its open migration window, exercising
  abort-and-rollback.

A :class:`CoreHourMeter` samples active-replica and reserved-host core
time in both elastic and static runs, so ``summarize_elastic`` can
price what the autoscaler saved. Everything stays inside the fleet's
byte-identity contract: elasticity actions are control-plane events,
identical across execution modes and worker counts.

(Like :mod:`repro.fleet.dataplane`, this module must not import the
parallel fabric — fabric workers import it to unpickle tasks. The
fan-out lives in :func:`repro.driver.run_tenants`, which picks the
elastic worker from the type of the params.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.chaos.injectors import Injection, apply_injection
from repro.dsps.platform import StreamPlatform
from repro.elastic.autoscaler import SCALE_LAG, Autoscaler, AutoscalerPolicy
from repro.elastic.migration import DUAL_WINDOW, MigrationEngine
from repro.fleet.dataplane import (
    DataplaneParams,
    TenantTask,
    run_platform,
    summarize_dataplane,
    tenant_platform,
)

__all__ = [
    "CoreHourMeter",
    "ElasticParams",
    "ElasticTask",
    "run_elastic_tenant",
    "summarize_elastic",
]


#: Role rotation: tenants ``0 mod CONSOLIDATE_EVERY`` consolidate at
#: night, the others ``1 mod REBALANCE_EVERY`` rebalance after the peak.
CONSOLIDATE_EVERY = 4
REBALANCE_EVERY = 2
#: Sampling period of the :class:`CoreHourMeter`: the autoscaler's
#: default tick, so both look at the same instants.
METER_TICK = AutoscalerPolicy.tick


@dataclass(frozen=True)
class ElasticParams(DataplaneParams):
    """Fleet dataplane shape plus the one elasticity switch.

    ``autoscale=False`` runs the *same* tenants with the meter attached
    but no engine or autoscaler — the static baseline the benchmark
    prices core-hour savings against.
    """

    autoscale: bool = True


@dataclass(frozen=True)
class ElasticTask(TenantTask):
    """A :class:`TenantTask` whose params carry the elasticity knobs."""

    params: ElasticParams


class CoreHourMeter:
    """Samples core usage over the run (left-Riemann, sim-time ticks).

    ``active_core_seconds`` integrates replicas that are alive *and*
    active — the cores actually burning cycles. ``reserved_core_seconds``
    integrates every provisioned host's cores except reclaimed ones
    (cordoned *and* empty) — the cores the provider still bills.
    Sampling at event boundaries keeps the integral deterministic and
    identical across execution modes: platform state only changes at
    kernel events, and the tick is one.
    """

    def __init__(
        self,
        platform: StreamPlatform,
        horizon: float,
        engine: Optional[MigrationEngine] = None,
    ) -> None:
        self._platform = platform
        self._horizon = horizon
        self._engine = engine
        self._pes = platform.deployment.descriptor.graph.pes
        self._cores = sum(host.cores for host in platform.deployment.hosts)
        self._memo: tuple[object, frozenset[str], tuple[int, int]] = (
            None,
            frozenset(),
            (0, 0),
        )
        self.active_core_seconds = 0.0
        self.reserved_core_seconds = 0.0

    def start(self) -> None:
        self._platform.env.recur(0.0, self._step, self._idle)

    @staticmethod
    def _idle(time: float) -> bool:
        """Sampling reads control-plane state and touches only the
        meter: the batched engine may step it inside a closed-form run."""
        return True

    def counts(self) -> tuple[int, int]:
        """``(active, reserved)`` cores now, walked once per control epoch
        and cordon set (a cordon does not move the epoch)."""
        platform = self._platform
        epoch, cordoned, counts = self._memo
        if epoch != platform.control_epoch or cordoned != (
            self._engine.cordoned if self._engine else cordoned
        ):
            cordoned = frozenset(self._engine.cordoned if self._engine else ())
            # Attached replicas are exactly the group members (attach and
            # detach maintain both), so residency needs no per-id lookups.
            active = sum(
                member.alive and member.active
                for pe in self._pes
                for member in platform.group(pe).members
            )
            reserved = self._cores - sum(
                platform.deployment.host(name).cores
                for name in cordoned
                if not platform.residents(name)  # reclaimed: cordoned, empty
            )
            counts = (active, reserved)
            self._memo = (platform.control_epoch, cordoned, counts)
        return counts

    def _step(self, time: float) -> Optional[float]:
        """The sample at ``time``; the delay to the next one, None at
        the horizon."""
        dt = min(METER_TICK, self._horizon - time)
        if dt <= 0:
            return None
        active, reserved = self.counts()
        self.active_core_seconds += active * dt
        self.reserved_core_seconds += reserved * dt
        return METER_TICK if time + METER_TICK < self._horizon else None


def peak_window(platform: StreamPlatform) -> tuple[float, float]:
    """The tenant's High-rate window, read from its source's trace."""
    return platform.sources["src"].trace.segment_windows("High")[0]


def tenant_roles(tenant: int) -> tuple[bool, bool]:
    """``(consolidates, rebalances)`` for this tenant — deterministic."""
    consolidates = tenant % CONSOLIDATE_EVERY == 0
    rebalances = not consolidates and tenant % REBALANCE_EVERY == 1
    return consolidates, rebalances


def run_elastic_tenant(task: ElasticTask) -> dict[str, Any]:
    """Run one elastic tenant and distil it into a plain digest.

    The tenant run itself is :func:`repro.fleet.dataplane.run_platform`
    — same SLO taps, conservation verdict and canonical event-stream
    hash. This adds what is elastic: the engine, autoscaler and meter
    attached before it (in that order, ahead of the SLO taps), and an
    ``"elastic"`` digest block with their counters and the meter's
    core-second integrals. The platform is closed once the digest is
    built, as in :func:`repro.fleet.dataplane.run_tenant`.
    """
    platform = tenant_platform(task)
    try:
        return _run_elastic_platform(task, platform)
    finally:
        platform.close()


def _run_elastic_platform(
    task: ElasticTask, platform: StreamPlatform
) -> dict[str, Any]:
    params = task.params
    engine: Optional[MigrationEngine] = None
    scaler: Optional[Autoscaler] = None
    if params.autoscale:
        engine = MigrationEngine(platform)
        consolidates, rebalances = tenant_roles(task.tenant)
        peak_start, peak_end = peak_window(platform)
        policy = AutoscalerPolicy(
            consolidate=consolidates, rebalance=rebalances
        )
        chost = f"h{params.n_hosts - 1:02d}" if consolidates else None
        scaler = Autoscaler(
            platform,
            engine,
            peak_start,
            peak_end,
            horizon=params.duration,
            policy=policy,
            consolidation_host=chost,
        )
        scaler.start()
        if (
            rebalances
            and params.chaos_every > 0
            and task.tenant % params.chaos_every == params.chaos_every // 4
        ):
            # Half a dual-window after the rebalancing move starts, so
            # its transfer or dual-running phase is open: the engine's
            # crash hook aborts the move and rolls back.
            ticks = math.ceil((peak_end + SCALE_LAG) / policy.tick)
            kill_at = ticks * policy.tick + 0.5 * DUAL_WINDOW
            if kill_at < params.duration:
                apply_injection(
                    platform,
                    Injection.build(
                        "migration_strike",
                        kill_at,
                        downtime=params.chaos_downtime,
                    ),
                    engine=engine,
                )

    meter = CoreHourMeter(platform, horizon=params.duration, engine=engine)
    meter.start()

    digest = run_platform(task, platform)
    digest["elastic"] = {
        "migrations": engine.attempted if engine is not None else 0,
        "completed": engine.completed if engine is not None else 0,
        "aborted": engine.aborted if engine is not None else 0,
        "refused": engine.refused if engine is not None else 0,
        "open": len(engine.open_migrations) if engine is not None else 0,
        "scale_ups": scaler.scale_ups if scaler is not None else 0,
        "scale_downs": scaler.scale_downs if scaler is not None else 0,
        "reactivations": scaler.reactivations if scaler is not None else 0,
        "consolidations": scaler.consolidations if scaler is not None else 0,
        "expansions": scaler.expansions if scaler is not None else 0,
        "moves": scaler.moves if scaler is not None else 0,
        "skipped": scaler.skipped if scaler is not None else 0,
        "active_core_seconds": round(meter.active_core_seconds, 9),
        "reserved_core_seconds": round(meter.reserved_core_seconds, 9),
    }
    return digest


def summarize_elastic(
    digests: Sequence[Mapping[str, Any]],
) -> dict[str, Any]:
    """Fold elastic tenant digests into one fleet report.

    Wraps the fleet summary (same ``fleet_sha256`` chaining, same
    violation roll-up) and adds the summed elasticity counters.
    """
    summary = summarize_dataplane(digests)
    elastic: dict[str, float] = {}
    for digest in digests:
        block = digest.get("elastic")
        if not block:
            continue
        for key, value in block.items():
            elastic[key] = elastic.get(key, 0) + value
    for key in ("active_core_seconds", "reserved_core_seconds"):
        if key in elastic:
            elastic[key] = round(elastic[key], 9)
    summary["elastic"] = {key: elastic[key] for key in sorted(elastic)}
    return summary
