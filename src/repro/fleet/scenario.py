"""Deterministic fleet-scale scenarios (the ``repro fleet`` workload).

A scenario drives a :class:`~repro.fleet.controller.FleetController`
through the full tenant life-cycle: ``tenants`` contracts drawn from
``distinct_apps`` application templates and a rotation of service
classes arrive on the event kernel, every ``drift_every``-th tenant's
input drifts out of contract after admission, and the controller
admits/rejects/re-plans/evicts accordingly.

The run has two phases:

* **Phase A (parallel)** — the strategy store is prewarmed over the
  distinct ``(application, IC target)`` pairs through
  :func:`repro.driver.fan_out`. Each worker solves one
  provisioning problem and returns plain ``(key, record)`` pairs;
  results are merged in task-submission order, and records carry no
  wall-clock data, so the store contents are byte-identical for every
  worker count.
* **Phase B (serial)** — the control loop runs on a
  :class:`~repro.sim.kernel.Environment` with telemetry stamped in
  simulated time. Every admission hits the prewarmed store, so the only
  searches here are warm-started re-plans — and those are memoised too.

The combination makes the whole scenario — event log bytes included —
a pure function of its parameters, which is the contract the CLI and
the determinism tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.deployment import Host
from repro.errors import ExperimentError
from repro.fleet.controller import FleetController, TenantClass, TenantSpec
from repro.fleet.report import build_fleet_report
from repro.fleet.store import StrategyStore
from repro.obs.telemetry import Telemetry
from repro.service.contract import Provisioner
from repro.sim.kernel import Environment
from repro.workloads.generator import (
    ClusterParams,
    GeneratedApplication,
    GeneratorParams,
    generate_application,
)

__all__ = [
    "FleetScenarioParams",
    "FleetScenarioResult",
    "run_fleet_scenario",
    "tenant_application",
]

# IC targets sit in the band the small slice shapes can actually reach
# (16 replicas on 18 cores leave little activation headroom); gold is
# deliberately infeasible for some app templates so scenarios exercise
# the SLA-rejection path.
CLASSES = (
    TenantClass("gold", ic_target=0.6, base_fee=5.0, cpu_rate=1.5),
    TenantClass("silver", ic_target=0.5, base_fee=2.0, cpu_rate=1.0),
    TenantClass("bronze", ic_target=0.3, base_fee=0.0, cpu_rate=0.6),
)
#: Tenant slice shape (the generator's cluster).
N_PES = 8
SLICE_HOSTS = 3
SLICE_CORES = 6
REPLICATION_FACTOR = 2
CYCLES_PER_CORE = 1.0e9
#: Search budget (node-limited, never wall-clock-limited). The prewarm
#: and the controller must search under the same one, or no admission
#: hits the prewarmed store.
NODE_LIMIT = 200_000
#: Rate observations per admitted tenant, and the event-time spacing of
#: arrivals and observations.
DRIFT_CHECKS = 6
ARRIVAL_SPACING = 1.0
CHECK_SPACING = 0.25


@dataclass(frozen=True)
class FleetScenarioParams:
    """Everything a fleet scenario depends on (results are a pure
    function of these values — no wall clock, no ambient RNG)."""

    tenants: int = 100
    # Coprime with the 3-class rotation, so tenants cover all 21
    # (template, class) combinations instead of a fixed pairing.
    distinct_apps: int = 7
    base_seed: int = 7
    # Shared cluster -------------------------------------------------------
    shared_hosts: int = 20
    shared_cores: int = 48
    # Drift model ----------------------------------------------------------
    drift_every: int = 4  # every Nth tenant drifts; 0 disables drift
    drift_factor: float = 1.1

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ExperimentError("a scenario needs at least one tenant")
        if not 1 <= self.distinct_apps:
            raise ExperimentError("distinct_apps must be >= 1")
        if self.drift_every < 0:
            raise ExperimentError("drift_every must be >= 0")
        if self.drift_factor <= 1.0:
            raise ExperimentError("drift_factor must be > 1")

    def app_seed(self, tenant_index: int) -> int:
        return self.base_seed + tenant_index % self.distinct_apps

    def tenant_class(self, tenant_index: int) -> TenantClass:
        return CLASSES[tenant_index % len(CLASSES)]

    def drifts(self, tenant_index: int) -> bool:
        return (
            self.drift_every > 0
            and (tenant_index + 1) % self.drift_every == 0
        )

    def shared_cluster(self) -> list[Host]:
        return [
            Host(
                f"shared{i:02d}",
                cores=self.shared_cores,
                cycles_per_core=CYCLES_PER_CORE,
            )
            for i in range(self.shared_hosts)
        ]

    def describe(self) -> dict:
        """The report's ``scenario`` block: what the run depended on."""
        return {
            "tenants": self.tenants,
            "distinct_apps": self.distinct_apps,
            "base_seed": self.base_seed,
            "classes": [cls.name for cls in CLASSES],
            "drift_every": self.drift_every,
            "drift_factor": self.drift_factor,
            "node_limit": NODE_LIMIT,
            "shared_hosts": self.shared_hosts,
            "shared_cores": self.shared_cores,
        }


def tenant_application(seed: int) -> GeneratedApplication:
    """The (deterministic) application template for one app seed."""
    return generate_application(
        seed,
        params=GeneratorParams(n_pes=N_PES),
        cluster=ClusterParams(
            n_hosts=SLICE_HOSTS,
            cores_per_host=SLICE_CORES,
            cycles_per_core=CYCLES_PER_CORE,
            replication_factor=REPLICATION_FACTOR,
        ),
        name=f"app-{seed:03d}",
    )


def _prewarm_task(task: tuple[int, TenantClass]) -> list[tuple[str, dict]]:
    """Solve one (application, class) provisioning problem for the store.

    Module-level so the process pool can pickle it. Returns the store
    entries produced (one per problem; plain dicts, no wall-clock data).
    """
    seed, tenant_class = task
    app = tenant_application(seed)
    store = StrategyStore()
    provisioner = Provisioner(
        list(app.deployment.hosts),
        replication_factor=REPLICATION_FACTOR,
        node_limit=NODE_LIMIT,
        store=store,
    )
    contract = TenantSpec(
        name=f"prewarm-{seed}-{tenant_class.name}",
        descriptor=app.descriptor,
        slice_hosts=tuple(app.deployment.hosts),
        tenant_class=tenant_class,
    ).contract()
    provisioner.try_provision(contract)
    return store.items()


@dataclass
class FleetScenarioResult:
    """One scenario run: the canonical report, the event log, the store."""

    params: FleetScenarioParams
    report: dict
    events_jsonl: str
    store: StrategyStore
    controller: FleetController = field(repr=False, default=None)


def run_fleet_scenario(
    params: Optional[FleetScenarioParams] = None,
    jobs: Optional[int] = None,
    store: Optional[StrategyStore] = None,
    profile=None,
) -> FleetScenarioResult:
    """Run one fleet scenario; bit-identical for every ``jobs`` value.

    ``jobs`` fans the store prewarm (phase A) out over a process pool;
    the control loop (phase B) is always serial on the event kernel.
    Pass a persistent ``store`` to reuse strategies across runs, and a
    :class:`~repro.experiments.parallel.FabricProfile` to meter phase A.
    """
    from repro.driver import fan_out

    params = params or FleetScenarioParams()

    # ------------------------------------------------------------------
    # Phase A: prewarm the store over distinct (app, class) pairs.
    # ------------------------------------------------------------------
    pairs: dict[tuple[int, TenantClass], None] = {}
    for i in range(params.tenants):
        pairs.setdefault((params.app_seed(i), params.tenant_class(i)))
    store = store if store is not None else StrategyStore()
    for entries in fan_out(_prewarm_task, pairs, jobs=jobs, profile=profile):
        store.merge(entries)

    # ------------------------------------------------------------------
    # Phase B: the serial control loop on the event kernel.
    # ------------------------------------------------------------------
    env = Environment()
    telemetry = Telemetry(clock=lambda: env.now)
    controller = FleetController(
        params.shared_cluster(),
        telemetry,
        store=store,
        replication_factor=REPLICATION_FACTOR,
        node_limit=NODE_LIMIT,
    )

    apps = {
        seed: tenant_application(seed)
        for seed in sorted({params.app_seed(i) for i in range(params.tenants)})
    }

    def arrival(spec: TenantSpec, drifts: bool) -> None:
        if controller.submit(spec) != "admitted":
            return
        space = spec.descriptor.configuration_space
        heaviest = space[space.sorted_by_total_rate()[0]]
        factor = params.drift_factor if drifts else 1.0
        rates = {
            source: rate * factor
            for source, rate in sorted(heaviest.rates.items())
        }
        for check in range(DRIFT_CHECKS):
            env.schedule(
                (check + 1) * CHECK_SPACING,
                lambda name=spec.name, r=rates: controller.observe_rates(
                    name, r
                ),
            )

    for i in range(params.tenants):
        app = apps[params.app_seed(i)]
        spec = TenantSpec(
            name=f"tenant-{i:03d}",
            descriptor=app.descriptor,
            slice_hosts=tuple(app.deployment.hosts),
            tenant_class=params.tenant_class(i),
        )
        env.schedule(
            i * ARRIVAL_SPACING,
            lambda s=spec, d=params.drifts(i): arrival(s, d),
        )

    env.run()

    report = build_fleet_report(params, controller, telemetry)
    return FleetScenarioResult(
        params=params,
        report=report,
        events_jsonl=telemetry.events.to_jsonl(),
        store=store,
        controller=controller,
    )
