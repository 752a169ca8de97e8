"""Fleet-scale *data plane*: thousands of tenants with real tuple flow.

:mod:`repro.fleet.scenario` exercises the multi-tenant control plane —
admission, packing, re-planning — on a bare clock with no simulated data
path. This module is its complement: every tenant here is a small but
fully simulated :class:`~repro.dsps.platform.StreamPlatform` run (chain
application, k=2 active replication, diurnal input trace, and on a
deterministic subset a host crash or a slow-host window applied as
:mod:`repro.chaos` injections), so a 10k-tenant fleet pushes real
tuples through real queues.

It is the headline workload for the batched execution engine
(:mod:`repro.dsps.batched`): tenant applications are deliberately
*template-friendly* — chain-shaped (no fan-in), selectivity <= 1, and
calibrated so one tuple's whole cascade finishes well inside the source
inter-arrival gap — which lets the engine commit almost every source
tuple in closed form instead of simulating ~15 heap events for it.
The e2e benchmark's ``dataplane_steady`` workload measures exactly these
tenants in both execution modes (``dsps.batched.speedup_x``), and
``tests/sim/test_batched_equivalence.py`` pins the two modes to
byte-identical event logs on them.

Everything in this module is pure simulation: no imports from the
process-parallel fabric (the fan-out lives in
:func:`repro.driver.run_tenants`), and every task and digest is built
from picklable scalars and containers only, so results are
bit-identical at any worker count.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.chaos.injectors import Injection, apply_injection
from repro.core.application import ApplicationGraph
from repro.core.configurations import ConfigurationSpace
from repro.core.deployment import Host, ReplicaId, ReplicatedDeployment
from repro.core.descriptor import ApplicationDescriptor, EdgeProfile
from repro.dsps.metrics import conservation_gaps
from repro.dsps.platform import PlatformConfig, StreamPlatform
from repro.dsps.traces import two_level_trace
from repro.errors import ReproError
from repro.obs.slo import CoverageAvailability, SloConfig, attach_slo

__all__ = [
    "APP_MEMO_SIZE",
    "HIGH_FRACTION",
    "DataplaneParams",
    "TenantApp",
    "TenantTask",
    "build_tenant_platform",
    "run_platform",
    "run_tenant",
    "summarize_dataplane",
    "tenant_app",
    "tenant_platform",
]


#: Tenant host size: cores per host and cycles per core.
CORES_PER_HOST = 4
CYCLES_PER_CORE = 1.0e9
#: Share of a tenant's run spent at its High rate (its "daily peak").
HIGH_FRACTION = 0.3
#: The calibration that keeps tenants inside the batched engine's
#: closed-form regime: the summed service span of one source tuple's
#: cascade is sized to this fraction of the High-rate inter-arrival gap,
#: so the platform is quiescent again before the next tuple arrives.
QUIESCENCE = 0.45


@dataclass(frozen=True)
class DataplaneParams:
    """Shape of one fleet data-plane run (scalars only: picklable).

    ``chaos_every`` gives every N-th tenant a mid-run ``rack_crash``
    injection on one host (and every (N/2 mod N)-th a ``slow_host``
    window), exercising failover and the engine's tuple-granular
    fallback inside the fleet itself. Queues, failover delay and
    arrival spacing are the platform's defaults (2 s, 1 s,
    deterministic).

    ``slo`` attaches a per-tenant streaming SLO engine
    (:mod:`repro.obs.slo`, coverage availability against
    ``slo_target`` over ``slo_window``-second windows) whose rollups
    land in the digest under ``"slo"`` and in the event stream as
    ``slo.*`` events. The window and the objective are constants of the
    class, not fields: no caller varies them.
    """

    tenants: int = 10_000
    distinct_apps: int = 16
    base_seed: int = 7
    n_pes: int = 6
    n_hosts: int = 4
    duration: float = 30.0
    phases: int = 8
    chaos_every: int = 25
    chaos_downtime: float = 3.0
    batching: bool = False
    keep_events: bool = False
    slo: bool = True
    slo_window = 5.0
    slo_target = 0.999

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ReproError("tenants must be >= 1")
        if self.distinct_apps < 1:
            raise ReproError("distinct_apps must be >= 1")
        if self.n_pes < 1:
            raise ReproError("n_pes must be >= 1")
        if self.n_hosts < 2:
            raise ReproError("n_hosts must be >= 2 (k=2 anti-affinity)")
        if self.phases < 1:
            raise ReproError("phases must be >= 1")
        if self.chaos_every < 0:
            raise ReproError("chaos_every must be >= 0")
        if not 0 < self.duration < math.inf:
            raise ReproError(
                f"duration must be finite and > 0: {self.duration}"
            )
        if not 0 < self.chaos_downtime < math.inf:
            raise ReproError(
                f"chaos_downtime must be finite and > 0: {self.chaos_downtime}"
            )


@dataclass(frozen=True)
class TenantApp:
    """One tenant's deployment plus the trace rates used to build it."""

    deployment: ReplicatedDeployment
    low_rate: float
    high_rate: float


@dataclass(frozen=True)
class TenantTask:
    """One tenant run: the picklable unit the fleet driver fans out.

    ``batching`` overrides ``params.batching`` when set — the
    equivalence tests use this to run the same tenant in both modes.
    """

    params: DataplaneParams
    tenant: int
    batching: Optional[bool] = None


#: Bound of the per-process application memo behind :func:`tenant_app`
#: (least recently used goes first). A cached application is ~14 KB; a
#: fleet with more distinct applications than this rebuilds them.
APP_MEMO_SIZE = 1024


def tenant_app(params: DataplaneParams, variant: int) -> TenantApp:
    """Tenant application ``variant`` (deterministic in the seed).

    A chain ``src -> pe00 -> ... -> sink`` with per-edge selectivities
    in (0.8, 1.0] and CPU costs calibrated so the full cascade span is
    :data:`QUIESCENCE` of the High-rate inter-arrival gap. Replicas
    are placed pairwise round-robin — consecutive PEs on *disjoint* host
    pairs — so a cascade never revisits a host it just left, which keeps
    the batched engine's host-reuse check trivially satisfied.

    Memoised per process, at most :data:`APP_MEMO_SIZE` applications,
    on exactly the fields read here — ``(base_seed, n_pes, n_hosts,
    variant)`` — so runs that differ in anything else (duration, chaos,
    execution mode, ``autoscale``) share one application, and every
    tenant of a variant holds the *same* deployment, descriptor, graph
    and rate table. That is sound because the core model is immutable
    after validation and hands out read-only tables.
    """
    return _tenant_app(
        params.base_seed, params.n_pes, params.n_hosts, variant
    )


@functools.lru_cache(maxsize=APP_MEMO_SIZE, typed=True)
def _tenant_app(
    base_seed: int, n_pes: int, n_hosts: int, variant: int
) -> TenantApp:
    rng = random.Random((base_seed << 16) ^ (7919 * variant))
    n = n_pes
    pes = [f"pe{i:02d}" for i in range(n)]
    edges = (
        [("src", pes[0])]
        + [(pes[i], pes[i + 1]) for i in range(n - 1)]
        + [(pes[-1], "sink")]
    )
    graph = ApplicationGraph.build(["src"], pes, ["sink"], edges)

    low = rng.uniform(4.0, 8.0)
    high = low * rng.uniform(1.5, 1.9)
    space = ConfigurationSpace.two_level(
        "src", low, high, low_probability=1.0 - HIGH_FRACTION
    )

    capacity = CORES_PER_HOST * CYCLES_PER_CORE
    span_budget = QUIESCENCE / high
    weights = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total_weight = sum(weights)
    profiles: dict[tuple[str, str], EdgeProfile] = {}
    tails = ["src"] + pes[:-1]
    for i, (tail, head) in enumerate(zip(tails, pes)):
        cycles = capacity * span_budget * weights[i] / total_weight
        selectivity = 1.0 if i == n - 1 else rng.uniform(0.8, 1.0)
        profiles[(tail, head)] = EdgeProfile(
            selectivity=selectivity, cpu_cost=cycles
        )

    hosts = [
        Host(
            f"h{i:02d}", cores=CORES_PER_HOST, cycles_per_core=CYCLES_PER_CORE
        )
        for i in range(n_hosts)
    ]
    assignment: dict[ReplicaId, str] = {}
    for i, pe in enumerate(pes):
        assignment[ReplicaId(pe, 0)] = hosts[(2 * i) % n_hosts].name
        assignment[ReplicaId(pe, 1)] = hosts[(2 * i + 1) % n_hosts].name

    descriptor = ApplicationDescriptor(
        graph, profiles, space, name=f"tenant-app-{variant:02d}"
    )
    deployment = ReplicatedDeployment(
        descriptor, hosts, assignment, replication_factor=2
    )
    return TenantApp(deployment=deployment, low_rate=low, high_rate=high)


def build_tenant_platform(
    params: DataplaneParams, tenant: int, batching: bool
) -> StreamPlatform:
    """Assemble one tenant's runnable platform, chaos injections applied.

    The tenant's diurnal phase rotates its High burst around the run
    (``tenant % params.phases``), so a fleet's load is spread in time
    the way staggered time zones spread a real diurnal cycle.
    """
    app = tenant_app(params, tenant % params.distinct_apps)
    phase = (tenant % params.phases) / params.phases
    trace = two_level_trace(
        app.low_rate,
        app.high_rate,
        duration=params.duration,
        high_fraction=HIGH_FRACTION,
        high_position=phase,
    )
    config = PlatformConfig(batching=batching)
    platform = StreamPlatform(app.deployment, {"src": trace}, config=config)

    if params.chaos_every > 0:
        slot = tenant % params.chaos_every
        at = round(0.35 * params.duration, 3)
        if slot == 0:
            # Crash the primary-heavy host mid-run: failover, then a
            # recovery — both abort in-flight work and invalidate the
            # batched engine's cascade templates.
            apply_injection(
                platform,
                Injection.build(
                    "rack_crash",
                    at,
                    hosts=("h00",),
                    downtime=params.chaos_downtime,
                ),
            )
        elif slot == params.chaos_every // 2:
            # Slow-host window on a secondary-heavy host: exercises the
            # speed-change epoch invalidation without any failover.
            apply_injection(
                platform,
                Injection.build(
                    "slow_host",
                    at,
                    host="h01",
                    factor=0.5,
                    duration=params.chaos_downtime,
                ),
            )
    return platform


def tenant_platform(task: TenantTask) -> StreamPlatform:
    """The task's platform, in the execution mode the task resolves to."""
    params = task.params
    batching = params.batching if task.batching is None else task.batching
    return build_tenant_platform(params, task.tenant, batching)


def run_platform(
    task: TenantTask, platform: StreamPlatform
) -> dict[str, Any]:
    """Run a tenant's built platform and distil it into a plain digest.

    The one tenant run: attach the SLO taps (last — whatever the caller
    attached to ``platform`` before comes first in tap order, which is
    part of the byte-identity contract), run, check conservation, hash
    the canonical event stream. The digest carries the per-tenant
    verdict and the SHA-256 of the stream — everything the
    byte-identity tests compare — plus the engine's counters under
    ``"engine"`` (the one key that legitimately differs between
    execution modes).
    """
    params = task.params
    slo_engine = None
    if params.slo:
        slo_engine = attach_slo(
            platform,
            CoverageAvailability(platform.deployment),
            SloConfig(
                window=params.slo_window,
                availability_target=params.slo_target,
            ),
            tenant=str(task.tenant),
        )
    metrics = platform.run()
    if slo_engine is not None:
        slo_engine.finalize(params.duration + 2.0)

    violations = [
        f"conservation {replica}: {gap}"
        for replica, gap in conservation_gaps(platform.conservation())
    ]
    if metrics.total_output == 0:
        violations.append("no-output: sinks received nothing")

    events = platform.telemetry.events
    jsonl = events.to_jsonl()
    digest: dict[str, Any] = {
        "tenant": task.tenant,
        "app": platform.deployment.descriptor.name,
        "batching": platform.engine is not None,
        "input": metrics.total_input,
        "output": metrics.total_output,
        "processed": metrics.tuples_processed,
        "dropped": metrics.logical_dropped,
        "lost": metrics.total_lost,
        "events_emitted": events.emitted,
        "events_sha256": hashlib.sha256(jsonl.encode("utf-8")).hexdigest(),
        "fallback_windows": platform.fallback.windows,
        "fallback_seconds": round(platform.fallback.covered, 9),
        "log_complete": events.evicted == 0,
        "slo": slo_engine.summary() if slo_engine is not None else None,
        "violations": violations,
        "engine": (
            dict(platform.engine.stats)
            if platform.engine is not None
            else None
        ),
    }
    if params.keep_events:
        digest["jsonl"] = jsonl
    return digest


def run_tenant(task: TenantTask) -> dict[str, Any]:
    """Run one tenant and return its digest (fabric worker).

    The platform is closed once the digest is built, so the tenant is
    freed by reference counting as soon as this returns.
    """
    platform = tenant_platform(task)
    try:
        return run_platform(task, platform)
    finally:
        platform.close()


def summarize_dataplane(
    digests: Sequence[Mapping[str, Any]],
) -> dict[str, Any]:
    """Fold per-tenant digests into one fleet report.

    ``fleet_sha256`` chains every tenant's event-stream hash in tenant
    order, so two fleet runs agree on it iff every tenant's event log
    is byte-identical — the scale-friendly form of the equivalence
    check (no 10k JSONL payloads held around).
    """
    fleet = hashlib.sha256()
    totals = {
        "input": 0,
        "output": 0,
        "processed": 0,
        "dropped": 0,
        "lost": 0,
        "events_emitted": 0,
        "fallback_windows": 0,
    }
    engine_totals: dict[str, int] = {}
    fallback_seconds = 0.0
    violations: list[dict[str, Any]] = []
    log_complete = True
    slo_tenants = 0
    slo_alerts = 0
    slo_bad_seconds = 0.0
    slo_min_availability: Optional[float] = None
    slo_verdicts: dict[str, int] = {}
    for digest in digests:
        fleet.update(str(digest["events_sha256"]).encode("ascii"))
        for key in totals:
            totals[key] += int(digest[key])
        fallback_seconds += float(digest["fallback_seconds"])
        log_complete = log_complete and bool(digest.get("log_complete", True))
        for item in digest["violations"]:
            violations.append({"tenant": digest["tenant"], "violation": item})
        stats = digest.get("engine")
        if stats:
            for key, value in stats.items():
                engine_totals[key] = engine_totals.get(key, 0) + int(value)
        slo = digest.get("slo")
        if slo:
            slo_tenants += 1
            slo_alerts += sum(
                1 for alert in slo["alerts"] if alert["state"] == "firing"
            )
            slo_bad_seconds += float(slo["bad_seconds"])
            availability = float(slo["availability"])
            if (
                slo_min_availability is None
                or availability < slo_min_availability
            ):
                slo_min_availability = availability
            verdict = str(slo["verdict"])
            slo_verdicts[verdict] = slo_verdicts.get(verdict, 0) + 1
    return {
        "tenants": len(digests),
        "fleet_sha256": fleet.hexdigest(),
        "totals": totals,
        "fallback_seconds": round(fallback_seconds, 9),
        "engine": engine_totals,
        "log_complete": log_complete,
        "slo": {
            "tenants": slo_tenants,
            "alerts": slo_alerts,
            "bad_seconds": slo_bad_seconds,
            "min_availability": slo_min_availability,
            "verdicts": {
                verdict: slo_verdicts[verdict]
                for verdict in sorted(slo_verdicts)
            },
        },
        "violations": violations,
        "ok": not violations,
    }
