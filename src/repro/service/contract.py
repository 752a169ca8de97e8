"""The PaaS service model of Section 3: contracts, SLAs, pricing plans.

"Stream processing services are regulated by customer-provider contracts
composed of (i) the stream processing application to be executed on the
platform, (ii) an application descriptor ..., (iii) a SLA determining the
targeted runtime quality requirements, and (iv) a pricing plan that
defines the economical conditions under which the provider runs the
customer application with the requested quality of service."

This module makes that model executable: a :class:`Contract` bundles a
descriptor with an :class:`SLA` (the paper's two example clauses —
fault-tolerance via the IC bound, and maximum latency) and a
:class:`PricingPlan` (the time-based fixed billing plan of Sec. 3); the
:class:`Provisioner` turns a contract into a deployed LAAR configuration
and its fare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.cost import cost_breakdown
from repro.core.descriptor import ApplicationDescriptor
from repro.core.deployment import Host, ReplicatedDeployment
from repro.core.optimizer import (
    OptimizationProblem,
    SearchResult,
    ft_search,
)
from repro.core.optimizer.ftsearch import NODE_LIMIT
from repro.core.strategy import ActivationStrategy
from repro.dsps.metrics import RunMetrics
from repro.errors import InfeasibleError, ModelError, OptimizationError
from repro.fleet.store import (
    StrategyStore,
    record_from_result,
    result_from_record,
    strategy_key,
)
from repro.placement import balanced_placement

__all__ = [
    "SLA",
    "PricingPlan",
    "Contract",
    "SLAReport",
    "ProvisionedApplication",
    "Provisioner",
]


@dataclass(frozen=True)
class SLA:
    """The quality clauses of Sec. 3.

    ``ic_target`` is the fault-tolerance clause (the guaranteed internal
    completeness under the pessimistic failure model); ``max_latency`` is
    the optional maximum-latency clause, checked at the given percentile
    of observed end-to-end latencies.
    """

    ic_target: float
    max_latency: Optional[float] = None
    latency_percentile: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 <= self.ic_target <= 1.0:
            raise ModelError(
                f"IC target must be in [0, 1], got {self.ic_target}"
            )
        if self.max_latency is not None and self.max_latency <= 0:
            raise ModelError("max_latency must be > 0 when given")
        if not 0.0 < self.latency_percentile <= 1.0:
            raise ModelError("latency_percentile must be in (0, 1]")


@dataclass(frozen=True)
class PricingPlan:
    """The time-based fixed billing plan of Sec. 3.

    The customer pays a flat fare per billing period ``T``; the fare
    depends on the application and the agreed SLA through the CPU time
    the chosen strategy is expected to consume: ``base_fee +
    cpu_rate * expected CPU-seconds per period``.
    """

    base_fee: float = 0.0
    cpu_rate: float = 1.0  # currency per CPU core-second
    billing_period: float = 3600.0  # the paper's T, in seconds

    def __post_init__(self) -> None:
        if self.base_fee < 0 or self.cpu_rate < 0:
            raise ModelError("fees and rates must be >= 0")
        if self.billing_period <= 0:
            raise ModelError("billing period must be > 0")

    def fare(
        self, strategy: ActivationStrategy
    ) -> float:
        """The per-period fare for running ``strategy``.

        CPU cycle-seconds are converted to core-seconds host by host
        (heterogeneous clock speeds are billed by actual core time).
        """
        deployment = strategy.deployment
        breakdown = cost_breakdown(
            strategy, billing_period=self.billing_period
        )
        cpu_seconds = sum(
            cycles / deployment.host(host).cycles_per_core
            for host, cycles in breakdown.per_host.items()
        )
        return self.base_fee + self.cpu_rate * cpu_seconds


@dataclass(frozen=True)
class Contract:
    """Items (ii)-(iv) of the Sec. 3 contract. The application itself
    (item i) is represented by its descriptor's graph."""

    descriptor: ApplicationDescriptor
    sla: SLA
    pricing: PricingPlan
    name: str = "contract"


@dataclass(frozen=True)
class SLAReport:
    """Post-run SLA compliance, from a simulated run's metrics."""

    guaranteed_ic: float
    ic_clause_met: bool
    observed_latency: Optional[float]
    latency_clause_met: bool

    @property
    def compliant(self) -> bool:
        return self.ic_clause_met and self.latency_clause_met


@dataclass(frozen=True)
class ProvisionedApplication:
    """A contract turned into a deployable LAAR configuration.

    ``from_cache`` marks a provisioning served by the strategy store
    (no search ran; ``search`` was rehydrated from the cached record).
    """

    contract: Contract
    deployment: ReplicatedDeployment
    strategy: ActivationStrategy
    search: SearchResult
    from_cache: bool = False

    @property
    def fare(self) -> float:
        return self.contract.pricing.fare(self.strategy)

    @property
    def guaranteed_ic(self) -> float:
        return self.search.best_ic

    def sla_report(self, metrics: RunMetrics) -> SLAReport:
        """Check a run's metrics against the contract's SLA clauses.

        The IC clause is satisfied *a priori* by construction (FT-Search
        only returns strategies meeting the bound); the latency clause is
        checked against the observed percentile. A run whose sinks
        received nothing has no percentile to observe and does not meet
        a latency clause.
        """
        sla = self.contract.sla
        ic_ok = self.guaranteed_ic >= sla.ic_target - 1e-9
        observed = None
        if sla.max_latency is None:
            latency_ok = True
        elif not any(len(r) for r in metrics.sink_latency.values()):
            latency_ok = False
        else:
            observed = metrics.latency_percentile(sla.latency_percentile)
            latency_ok = observed <= sla.max_latency
        return SLAReport(
            guaranteed_ic=self.guaranteed_ic,
            ic_clause_met=ic_ok,
            observed_latency=observed,
            latency_clause_met=latency_ok,
        )


class Provisioner:
    """The provider side: place, optimize, and price a contract.

    ``node_limit`` bounds the FT-Search run in expanded nodes, so its
    result is independent of host speed; ``search_time_limit`` accepts
    only ``None`` (FT-Search reads no clock). With a ``store`` attached,
    provisioning first consults the
    :class:`~repro.fleet.store.StrategyStore` and every fresh search
    result (including infeasible proofs) is written back, so repeated
    provisioning of identical descriptors skips the search entirely.
    """

    def __init__(
        self,
        hosts: list[Host],
        replication_factor: int = 2,
        search_time_limit: None = None,
        node_limit: Optional[int] = NODE_LIMIT,
        store: Optional[StrategyStore] = None,
    ) -> None:
        if not hosts:
            raise ModelError("the provider needs at least one host")
        if search_time_limit is not None:
            raise OptimizationError(
                f"FT-Search budgets are in nodes (node_limit), got"
                f" search_time_limit={search_time_limit!r}"
            )
        self._hosts = list(hosts)
        self._k = replication_factor
        self._node_limit = node_limit
        self._store = store

    def _search_signature(self) -> str:
        """Identifies the search configuration inside store keys, so a
        record is only reused by an identically-configured search."""
        return f"ftsearch:nodes={self._node_limit}:seed=1"

    def try_provision(
        self,
        contract: Contract,
        warm_start: Optional[ActivationStrategy] = None,
    ) -> tuple[Optional[ProvisionedApplication], dict]:
        """Provision without raising: ``(provisioned_or_None, record)``.

        The record always describes the search outcome (store format of
        :func:`repro.fleet.store.record_from_result`, plus a
        ``from_cache`` flag); ``None`` for the first element means the
        contract is infeasible on the offered hosts. ``warm_start``
        seeds the search with a previous incumbent strategy (ignored by
        the engine when unusable) — the fleet re-planner passes the
        tenant's currently-running strategy here.
        """
        deployment = balanced_placement(
            contract.descriptor, self._hosts, self._k
        )
        key: Optional[str] = None
        if self._store is not None:
            key = strategy_key(
                contract.descriptor,
                self._hosts,
                self._k,
                contract.sla.ic_target,
                signature=self._search_signature(),
            )
            record = self._store.get(key)
            if record is not None:
                result = result_from_record(record, deployment)
                provisioned = (
                    None
                    if result.strategy is None
                    else ProvisionedApplication(
                        contract=contract,
                        deployment=deployment,
                        strategy=result.strategy,
                        search=result,
                        from_cache=True,
                    )
                )
                return provisioned, dict(record, from_cache=True)

        result = ft_search(
            OptimizationProblem(
                deployment, ic_target=contract.sla.ic_target
            ),
            node_limit=self._node_limit,
            seed_incumbent=True,
            warm_start=warm_start,
        )
        record = record_from_result(result)
        if self._store is not None and key is not None:
            self._store.put(key, record)
        provisioned = (
            None
            if result.strategy is None
            else ProvisionedApplication(
                contract=contract,
                deployment=deployment,
                strategy=result.strategy,
                search=result,
            )
        )
        return provisioned, dict(record, from_cache=False)

    def provision(
        self,
        contract: Contract,
        warm_start: Optional[ActivationStrategy] = None,
    ) -> ProvisionedApplication:
        """Run the Fig. 7 workflow for one contract.

        Raises :class:`InfeasibleError` when no activation strategy can
        satisfy the SLA on the provider's hosts — the provider must
        refuse the contract (or renegotiate the SLA) rather than accept
        a deal it would pay penalties on.
        """
        provisioned, record = self.try_provision(
            contract, warm_start=warm_start
        )
        if provisioned is None:
            raise InfeasibleError(
                f"contract {contract.name!r}: no strategy satisfies"
                f" IC >= {contract.sla.ic_target} on the offered hosts"
                f" ({record['outcome']})"
            )
        return provisioned
