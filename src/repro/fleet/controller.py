"""The fleet controller: admission, packing, drift, re-planning.

One :class:`FleetController` operates a shared cluster for many tenants.
Its life-cycle per tenant:

1. **Admission** — the tenant's contract is solved on its *slice* (the
   tenant-local host shape its application was sized for) through a
   store-backed :class:`~repro.service.contract.Provisioner`. An
   SLA-infeasible contract is rejected outright; a feasible one is then
   packed onto the shared :class:`~repro.placement.packing.HostPool`
   (reject on capacity when the pool cannot fit it).
2. **Drift detection** — each admitted tenant gets a
   :class:`~repro.rtree.config_index.ConfigurationIndex` over its
   contracted configuration space. Rate observations run through it;
   out-of-contract rates surface as ``config.fallback`` events (tagged
   with the tenant) and bump a per-tenant streak counter.
3. **Re-planning** — after ``sustain_checks`` *consecutive* fallbacks
   the input has genuinely left the contract (Madsen & Zhou's argument
   for online re-configuration): the controller scales the contracted
   configuration space up to cover the observed rates and re-runs
   FT-Search **warm-started** from the tenant's running strategy, which
   prunes with the old optimum as the initial upper bound.
4. **Eviction** — when no strategy satisfies the SLA at the drifted
   rates, the tenant is evicted and its cores returned to the pool.

Every decision emits a typed ``fleet.*`` event (see
:data:`repro.obs.events.EVENT_SCHEMA`). The controller is deliberately
wall-clock-free: given the same submissions and observations in the same
order it produces byte-identical event streams and reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.core.configurations import ConfigurationSpace, InputConfiguration
from repro.core.deployment import Host
from repro.core.descriptor import ApplicationDescriptor
from repro.errors import ModelError
from repro.fleet.store import StrategyStore
from repro.placement.packing import HostPool
from repro.rtree.config_index import ConfigurationIndex
from repro.service.contract import SLA, Contract, PricingPlan, Provisioner

__all__ = [
    "TenantClass",
    "TenantSpec",
    "TenantState",
    "FleetController",
    "scale_configuration_space",
    "scale_descriptor_rates",
]


def scale_configuration_space(
    space: ConfigurationSpace, factor: float
) -> ConfigurationSpace:
    """The same configuration lattice with every rate scaled by ``factor``."""
    if factor <= 0:
        raise ModelError(f"scale factor must be > 0, got {factor}")
    return ConfigurationSpace(
        InputConfiguration(
            index=config.index,
            rates={
                source: rate * factor
                for source, rate in sorted(config.rates.items())
            },
            probability=config.probability,
            label=config.label,
        )
        for config in space
    )


def scale_descriptor_rates(
    descriptor: ApplicationDescriptor, factor: float
) -> ApplicationDescriptor:
    """A descriptor whose contracted rates are scaled by ``factor``.

    This is the re-planner's model of out-of-contract drift: the graph,
    selectivities and CPU costs are unchanged — only the input
    configuration space moves up to cover the observed rates.
    """
    payload = descriptor.to_dict()
    payload["configuration_space"] = scale_configuration_space(
        descriptor.configuration_space, factor
    ).to_dict()
    return ApplicationDescriptor.from_dict(payload)


@dataclass(frozen=True)
class TenantClass:
    """A service class: the SLA and pricing terms tenants sign up under."""

    name: str
    ic_target: float
    base_fee: float = 0.0
    cpu_rate: float = 1.0

    def sla(self) -> SLA:
        return SLA(ic_target=self.ic_target)

    def pricing(self) -> PricingPlan:
        return PricingPlan(base_fee=self.base_fee, cpu_rate=self.cpu_rate)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a named application slice under a service class.

    ``descriptor`` is the tenant's application; ``slice_hosts`` the
    tenant-local host shape the application was sized for (the per-slice
    placement runs on these, then the pool maps them to shared hosts).
    """

    name: str
    descriptor: ApplicationDescriptor
    slice_hosts: tuple[Host, ...]
    tenant_class: TenantClass

    def contract(
        self, descriptor: Optional[ApplicationDescriptor] = None
    ) -> Contract:
        return Contract(
            descriptor=descriptor or self.descriptor,
            sla=self.tenant_class.sla(),
            pricing=self.tenant_class.pricing(),
            name=self.name,
        )


@dataclass
class TenantState:
    """The controller's book-keeping for one admitted tenant."""

    spec: TenantSpec
    provisioned: object  # ProvisionedApplication
    mapping: dict[str, str]  # local host -> shared host
    cores: int
    index: ConfigurationIndex
    fallback_streak: int = 0
    replans: int = 0
    status: str = "active"
    fare: float = 0.0
    drift_factor: float = 1.0
    events: list[str] = field(default_factory=list)


class _TenantTelemetry:
    """Telemetry adapter stamping a ``tenant`` field on every event.

    The :class:`ConfigurationIndex` emits ``config.fallback`` through
    whatever telemetry it is handed; in a fleet many indexes share one
    event log, so each tenant's index gets this thin wrapper to keep the
    events attributable.
    """

    __slots__ = ("_inner", "_tenant")

    def __init__(self, inner, tenant: str) -> None:
        self._inner = inner
        self._tenant = tenant

    def emit(self, type_: str, **fields) -> None:
        self._inner.emit(type_, tenant=self._tenant, **fields)


class FleetController:
    """Operates a shared cluster for many tenant contracts."""

    def __init__(
        self,
        hosts: Sequence[Host],
        telemetry,
        store: Optional[StrategyStore] = None,
        replication_factor: int = 2,
        node_limit: Optional[int] = 200_000,
        sustain_checks: int = 3,
        rate_tolerance: float = 0.0,
    ) -> None:
        """``telemetry`` is a :class:`repro.obs.Telemetry` (or anything
        with a compatible ``emit``); ``sustain_checks`` is how many
        *consecutive* out-of-contract observations trigger a re-plan.
        Searches run under ``node_limit``, so every decision is
        independent of host speed."""
        if sustain_checks < 1:
            raise ModelError(
                f"sustain_checks must be >= 1, got {sustain_checks}"
            )
        self._pool = HostPool(hosts)
        self._telemetry = telemetry
        self._store = store if store is not None else StrategyStore()
        self._k = replication_factor
        self._node_limit = node_limit
        self._sustain_checks = sustain_checks
        self._rate_tolerance = rate_tolerance
        # One Provisioner per slice shape; tenants from the same template
        # share it (and through it the strategy store).
        self._provisioners: dict[tuple, Provisioner] = {}
        self.tenants: dict[str, TenantState] = {}
        self.submitted = 0
        self.admitted = 0
        self.rejected_sla = 0
        self.rejected_capacity = 0
        self.evicted = 0
        self.replans_attempted = 0
        self.replans_feasible = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    @property
    def pool(self) -> HostPool:
        return self._pool

    @property
    def store(self) -> StrategyStore:
        return self._store

    def _provisioner_for(self, slice_hosts: Sequence[Host]) -> Provisioner:
        key = tuple(
            (host.name, host.cores, host.cycles_per_core)
            for host in slice_hosts
        )
        provisioner = self._provisioners.get(key)
        if provisioner is None:
            provisioner = Provisioner(
                list(slice_hosts),
                replication_factor=self._k,
                node_limit=self._node_limit,
                store=self._store,
            )
            self._provisioners[key] = provisioner
        return provisioner

    def submit(self, spec: TenantSpec) -> str:
        """Offer one tenant contract; returns the admission decision
        (``"admitted"``, ``"rejected:sla"`` or ``"rejected:capacity"``).
        """
        if spec.name in self.tenants:
            raise ModelError(f"tenant {spec.name!r} already submitted")
        self.submitted += 1
        app_name = spec.descriptor.name
        provisioner = self._provisioner_for(spec.slice_hosts)
        provisioned, record = provisioner.try_provision(spec.contract())
        if provisioned is None:
            self.rejected_sla += 1
            self._telemetry.emit(
                "fleet.reject",
                tenant=spec.name,
                app=app_name,
                reason="sla",
            )
            return "rejected:sla"

        deployment = provisioned.deployment
        requests = {
            name: len(deployment.replicas_on(name))
            for name in deployment.host_names
            if deployment.replicas_on(name)
        }
        mapping = self._pool.reserve(spec.name, requests)
        if mapping is None:
            self.rejected_capacity += 1
            self._telemetry.emit(
                "fleet.reject",
                tenant=spec.name,
                app=app_name,
                reason="capacity",
            )
            return "rejected:capacity"

        fare = provisioned.fare
        cores = sum(requests.values())
        self.admitted += 1
        self._telemetry.emit(
            "fleet.admit",
            tenant=spec.name,
            app=app_name,
            ic=record["best_ic"],
            cost=record["best_cost"],
            hosts=len(mapping),
            cores=cores,
            fare=fare,
            cache=record["from_cache"],
        )
        self.tenants[spec.name] = TenantState(
            spec=spec,
            provisioned=provisioned,
            mapping=mapping,
            cores=cores,
            index=self._index_for(spec.name, spec.descriptor),
            fare=fare,
        )
        return "admitted"

    def _index_for(
        self, tenant: str, descriptor: ApplicationDescriptor
    ) -> ConfigurationIndex:
        return ConfigurationIndex(
            descriptor.configuration_space,
            tolerance=self._rate_tolerance,
            telemetry=_TenantTelemetry(self._telemetry, tenant),
        )

    # ------------------------------------------------------------------
    # Drift and re-planning
    # ------------------------------------------------------------------

    def observe_rates(self, tenant: str, rates: Mapping[str, float]) -> None:
        """Feed one rate measurement for ``tenant`` into drift detection.

        In-contract observations reset the fallback streak; a streak of
        ``sustain_checks`` consecutive out-of-contract observations
        triggers a warm-started re-plan. Observations for rejected or
        evicted tenants are ignored (their monitors may lag eviction).
        """
        state = self.tenants.get(tenant)
        if state is None or state.status != "active":
            return
        before = state.index.fallbacks
        state.index.lookup(rates)
        if state.index.fallbacks == before:
            state.fallback_streak = 0
            return
        state.fallback_streak += 1
        if state.fallback_streak >= self._sustain_checks:
            self._replan(state, rates)

    def _drift_factor(
        self, state: TenantState, rates: Mapping[str, float]
    ) -> float:
        """How far the observed rates exceed the contracted maximum."""
        space = state.spec.descriptor.configuration_space
        heaviest = space[space.sorted_by_total_rate()[0]]
        factor = 1.0
        for source in space.sources:
            contracted = heaviest.rate_of(source)
            observed = float(rates.get(source, 0.0))
            if contracted > 0 and observed > contracted:
                factor = max(factor, observed / contracted)
        return factor

    def _replan(self, state: TenantState, rates: Mapping[str, float]) -> None:
        spec = state.spec
        # Factor is measured against the *original* contract, so it is a
        # total drift figure: re-drifting after a re-plan yields a factor
        # strictly above the one currently installed.
        factor = max(self._drift_factor(state, rates), state.drift_factor)
        scaled = scale_descriptor_rates(spec.descriptor, factor)
        provisioner = self._provisioner_for(spec.slice_hosts)
        warm = state.provisioned.strategy
        self.replans_attempted += 1
        state.replans += 1
        state.fallback_streak = 0
        provisioned, record = provisioner.try_provision(
            spec.contract(descriptor=scaled), warm_start=warm
        )
        feasible = provisioned is not None
        self._telemetry.emit(
            "fleet.replan",
            tenant=spec.name,
            factor=factor,
            feasible=feasible,
            nodes=record["nodes"],
            warm=True,
        )
        if not feasible:
            self._evict(state, reason="sla")
            return
        self.replans_feasible += 1
        state.provisioned = provisioned
        state.fare = provisioned.fare
        state.drift_factor = factor
        # Track drift against the *re-planned* contract from here on.
        state.index = self._index_for(spec.name, scaled)

    def _evict(self, state: TenantState, reason: str) -> None:
        self._pool.release(state.spec.name)
        state.status = "evicted"
        self.evicted += 1
        self._telemetry.emit(
            "fleet.evict", tenant=state.spec.name, reason=reason
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def active_tenants(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                name
                for name, state in self.tenants.items()
                if state.status == "active"
            )
        )

    def counters(self) -> dict:
        """The controller's decision counters (canonical dict)."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected_sla": self.rejected_sla,
            "rejected_capacity": self.rejected_capacity,
            "evicted": self.evicted,
            "active": len(self.active_tenants),
            "replans_attempted": self.replans_attempted,
            "replans_feasible": self.replans_feasible,
        }
