"""The internal completeness (IC) metric: Eq. 5-8 of the paper.

Given a failure model ``phi`` and a replica activation strategy ``s``,
internal completeness measures — over a billing period ``T`` — the fraction
of tuples expected to be processed in case of failures relative to the
failure-free count:

    BIC   = T * sum_{c, x_i in P, x_j in pred(x_i)} P_C(c) * Delta(x_j, c)
    FIC(s)= T * sum_{c, x_i in P, x_j in pred(x_i)}
                P_C(c) * phi(x_i, c, s) * Delta-hat(x_j, c, s)
    IC(s) = FIC(s) / BIC

with the failure-aware rate recursion (Eq. 7):

    Delta-hat(x, c, s) = Delta(x, c)                                if x is a source
    Delta-hat(x, c, s) = phi(x, c, s) *
                         sum_{x_j in pred(x)} delta(x_j, x) * Delta-hat(x_j, c, s)
                                                                    if x is a PE
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.failure_models import FailureModel, PessimisticFailureModel
from repro.core.descriptor import ApplicationDescriptor
from repro.core.strategy import ActivationStrategy
from repro.errors import ModelError

__all__ = [
    "failure_aware_rates",
    "best_case_internal_completeness",
    "failure_internal_completeness",
    "internal_completeness",
    "ICBreakdown",
    "ic_breakdown",
]


def failure_aware_rates(
    strategy: ActivationStrategy,
    failure_model: FailureModel,
) -> dict[str, tuple[float, ...]]:
    """Delta-hat(x, c, s) for every component and configuration (Eq. 7)."""
    deployment = strategy.deployment
    descriptor = deployment.descriptor
    graph = descriptor.graph
    space = descriptor.configuration_space
    n_configs = len(space)
    rate_table = descriptor.rate_table

    rates: dict[str, list[float]] = {}
    for name in graph.topological_order:
        component = graph.components[name]
        if component.is_source:
            rates[name] = [rate_table.rate(name, c) for c in range(n_configs)]
        elif component.is_pe:
            row = []
            for c in range(n_configs):
                inflow = sum(
                    descriptor.selectivity(edge.tail, name)
                    * rates[edge.tail][c]
                    for edge in graph.pe_input_edges(name)
                )
                row.append(failure_model.phi(name, c, strategy) * inflow)
            rates[name] = row
        else:  # sink: pass-through sum, useful for output-completeness views
            rates[name] = [
                sum(rates[p][c] for p in graph.pred(name))
                for c in range(n_configs)
            ]
    return {name: tuple(row) for name, row in rates.items()}


def best_case_internal_completeness(
    descriptor: ApplicationDescriptor, billing_period: float = 1.0
) -> float:
    """BIC (Eq. 5): expected tuples processed by all PEs with no failures."""
    if billing_period <= 0:
        raise ModelError(f"billing period must be > 0, got {billing_period}")
    rate_table = descriptor.rate_table
    total = 0.0
    for config in descriptor.configuration_space:
        total += config.probability * rate_table.total_pe_input_rate(
            config.index
        )
    return billing_period * total


def failure_internal_completeness(
    strategy: ActivationStrategy,
    failure_model: FailureModel | None = None,
    billing_period: float = 1.0,
) -> float:
    """FIC (Eq. 6): expected tuples processed under the failure model."""
    if billing_period <= 0:
        raise ModelError(f"billing period must be > 0, got {billing_period}")
    if failure_model is None:
        failure_model = PessimisticFailureModel()
    descriptor = strategy.deployment.descriptor
    graph = descriptor.graph
    space = descriptor.configuration_space
    delta_hat = failure_aware_rates(strategy, failure_model)

    total = 0.0
    for config in space:
        c = config.index
        for pe in graph.pes:
            phi = failure_model.phi(pe, c, strategy)
            if phi == 0.0:
                continue
            inflow = sum(
                delta_hat[edge.tail][c] for edge in graph.pe_input_edges(pe)
            )
            total += config.probability * phi * inflow
    return billing_period * total


def internal_completeness(
    strategy: ActivationStrategy,
    failure_model: FailureModel | None = None,
) -> float:
    """IC (Eq. 8): FIC / BIC. Independent of the billing period length."""
    bic = best_case_internal_completeness(strategy.deployment.descriptor)
    if bic == 0.0:
        raise ModelError(
            "BIC is zero: the application processes no tuples in any"
            " configuration, IC is undefined"
        )
    fic = failure_internal_completeness(strategy, failure_model)
    return fic / bic


@dataclass(frozen=True)
class ICBreakdown:
    """Detailed IC accounting, used by reports and by optimizer tests.

    ``per_config`` maps configuration index to ``(fic_c, bic_c)`` — the
    probability-weighted tuple counts contributed by that configuration.
    """

    ic: float
    fic: float
    bic: float
    per_config: Mapping[int, tuple[float, float]]
    failure_model: str


def ic_breakdown(
    strategy: ActivationStrategy,
    failure_model: FailureModel | None = None,
) -> ICBreakdown:
    """IC with per-configuration contributions (for diagnostics)."""
    if failure_model is None:
        failure_model = PessimisticFailureModel()
    descriptor = strategy.deployment.descriptor
    rate_table = descriptor.rate_table
    graph = descriptor.graph
    space = descriptor.configuration_space
    delta_hat = failure_aware_rates(strategy, failure_model)

    per_config: dict[int, tuple[float, float]] = {}
    fic_total = 0.0
    bic_total = 0.0
    for config in space:
        c = config.index
        fic_c = 0.0
        bic_c = 0.0
        for pe in graph.pes:
            phi = failure_model.phi(pe, c, strategy)
            inflow_hat = sum(
                delta_hat[edge.tail][c] for edge in graph.pe_input_edges(pe)
            )
            fic_c += config.probability * phi * inflow_hat
            bic_c += config.probability * rate_table.pe_input_rate(pe, c)
        per_config[c] = (fic_c, bic_c)
        fic_total += fic_c
        bic_total += bic_c

    if bic_total == 0.0:
        raise ModelError("BIC is zero: IC is undefined")
    return ICBreakdown(
        ic=fic_total / bic_total,
        fic=fic_total,
        bic=bic_total,
        per_config=per_config,
        failure_model=failure_model.name,
    )
