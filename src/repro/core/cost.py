"""The provider cost model: Eq. 13 and the host-load side of Eq. 11.

The cost of running an application with activation strategy ``s`` over a
billing period ``T`` is the total CPU time its active replicas consume:

    cost(s) = T * sum_{c, x-tilde_{i,h}, x_j in pred(x_i)}
                  P_C(c) * gamma(x_j, x_i) * Delta(x_j, c) * s(x-tilde_{i,h}, c)

Note the cost uses the *failure-free* rates Delta — the provider provisions
for the no-failure steady state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.strategy import ActivationStrategy
from repro.errors import ModelError

__all__ = [
    "strategy_cost",
    "CostBreakdown",
    "cost_breakdown",
    "host_load_table",
    "cpu_constraint_violations",
]


def strategy_cost(
    strategy: ActivationStrategy,
    billing_period: float = 1.0,
) -> float:
    """cost(s) per Eq. 13, in CPU cycle-seconds over ``billing_period``."""
    if billing_period <= 0:
        raise ModelError(f"billing period must be > 0, got {billing_period}")
    deployment = strategy.deployment
    descriptor = deployment.descriptor
    rate_table = descriptor.rate_table
    space = descriptor.configuration_space

    total = 0.0
    for config in space:
        c = config.index
        for replica in deployment.replicas:
            if strategy.is_active(replica, c):
                total += config.probability * rate_table.replica_load(
                    replica.pe, c
                )
    return billing_period * total


@dataclass(frozen=True)
class CostBreakdown:
    """Cost accounting used by reports.

    ``per_config`` maps configuration index to the probability-weighted
    CPU cycles/s the strategy consumes there; ``per_host`` aggregates the
    same figure by host (probability-weighted over configurations).
    """

    total: float
    per_config: Mapping[int, float]
    per_host: Mapping[str, float]
    billing_period: float


def cost_breakdown(
    strategy: ActivationStrategy,
    billing_period: float = 1.0,
) -> CostBreakdown:
    """Eq. 13 with per-configuration and per-host attribution."""
    if billing_period <= 0:
        raise ModelError(f"billing period must be > 0, got {billing_period}")
    deployment = strategy.deployment
    descriptor = deployment.descriptor
    rate_table = descriptor.rate_table
    space = descriptor.configuration_space

    per_config: dict[int, float] = {}
    per_host: dict[str, float] = {name: 0.0 for name in deployment.host_names}
    for config in space:
        c = config.index
        config_total = 0.0
        for replica in deployment.replicas:
            if not strategy.is_active(replica, c):
                continue
            load = config.probability * rate_table.replica_load(replica.pe, c)
            config_total += load
            per_host[deployment.host_of(replica)] += load
        per_config[c] = billing_period * config_total
    per_host = {
        name: billing_period * value for name, value in per_host.items()
    }
    total = sum(per_config.values())
    return CostBreakdown(
        total=total,
        per_config=per_config,
        per_host=per_host,
        billing_period=billing_period,
    )


def host_load_table(
    strategy: ActivationStrategy,
) -> dict[tuple[str, int], float]:
    """CPU cycles/s per (host, configuration) under ``strategy``.

    The left-hand side of Eq. 11 for every host and configuration.
    """
    deployment = strategy.deployment
    rate_table = deployment.descriptor.rate_table
    n_configs = len(deployment.descriptor.configuration_space)

    table: dict[tuple[str, int], float] = {
        (host, c): 0.0
        for host in deployment.host_names
        for c in range(n_configs)
    }
    for replica in deployment.replicas:
        host = deployment.host_of(replica)
        for c in range(n_configs):
            if strategy.is_active(replica, c):
                table[(host, c)] += rate_table.replica_load(replica.pe, c)
    return table


def cpu_constraint_violations(
    strategy: ActivationStrategy,
) -> list[tuple[str, int, float, float]]:
    """All (host, config, load, capacity) entries violating Eq. 11.

    Eq. 11 is a strict inequality: ``load < K``. An empty list means the
    deployment is never overloaded under ``strategy``.
    """
    deployment = strategy.deployment
    loads = host_load_table(strategy)
    violations = []
    for (host, c), load in sorted(loads.items()):
        capacity = deployment.host(host).capacity
        if load >= capacity:
            violations.append((host, c, load, capacity))
    return violations
