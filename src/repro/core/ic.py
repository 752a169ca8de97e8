"""The internal completeness (IC) metric: Eq. 5-8 and Eq. 14 of the paper.

Internal completeness measures the fraction of tuples the PEs are
expected to process in case of failures relative to the failure-free
count:

    BIC   = sum_{c, x_i in P, x_j in pred(x_i)} P_C(c) * Delta(x_j, c)
    FIC(s)= sum_{c, x_i in P, x_j in pred(x_i)}
                P_C(c) * phi(x_i, c, s) * Delta-hat(x_j, c, s)
    IC(s) = FIC(s) / BIC

with the failure-aware rate recursion (Eq. 7):

    Delta-hat(x, c, s) = Delta(x, c)                                if x is a source
    Delta-hat(x, c, s) = phi(x, c, s) *
                         sum_{x_j in pred(x)} delta(x_j, x) * Delta-hat(x_j, c, s)
                                                                    if x is a PE

The paper multiplies BIC and FIC by the billing period T, which cancels
in IC; both are rates here. Outside FT-Search's engines this module is
the one place phi and the recursion are computed: the metric,
:func:`repro.core.altmetrics.output_completeness` and the run-time judge
:class:`repro.obs.replay.FloorWalker` all read :func:`failure_aware_rates`,
fed :func:`pessimistic_phi` or a replayed run's realized phi.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.deployment import ReplicatedDeployment
from repro.core.descriptor import ApplicationDescriptor
from repro.core.strategy import ActivationStrategy
from repro.errors import ModelError

__all__ = [
    "pessimistic_phi",
    "failure_aware_rates",
    "best_case_internal_completeness",
    "internal_completeness",
]


def pessimistic_phi(
    strategy: ActivationStrategy, config_index: int
) -> dict[str, float]:
    """Eq. 14's phi in one configuration: 1 iff all k replicas are active.

    In the assumed worst case every replica of a PE fails except one,
    and unless all replicas are active the survivor is chosen among the
    inactive ones (Sec. 4.4): a PE produces output only where the
    strategy keeps full replication. The IC it yields is a hard lower
    bound on the IC a real deployment observes.
    """
    return {
        pe: 1.0 if strategy.fully_replicated(pe, config_index) else 0.0
        for pe in strategy.deployment.descriptor.graph.pes
    }


def failure_aware_rates(
    deployment: ReplicatedDeployment,
    config_index: int,
    phi: Mapping[str, float],
) -> tuple[dict[str, float], float]:
    """Delta-hat of every component (Eq. 7) and the FIC rate (Eq. 6).

    One configuration, one per-PE ``phi`` map; a PE missing from
    ``phi`` contributes nothing (phi = 0). The FIC rate, in tuples/s,
    counts what each PE processes, phi times its *input*
    sum_{x_j in pred} Delta-hat(x_j), as FT-Search's engines do — not
    the selectivity-weighted output it passes downstream. Sinks get the
    plain sum of their inputs, for output completeness.
    """
    descriptor = deployment.descriptor
    rate_table = descriptor.rate_table
    graph = descriptor.graph
    components = graph.components
    rates: dict[str, float] = {}
    fic = 0.0
    for name in graph.topological_order:
        component = components[name]
        if component.is_source:
            rates[name] = rate_table.rate(name, config_index)
        elif component.is_pe:
            p = phi.get(name, 0.0)
            inflow = 0.0
            outflow = 0.0
            for edge in graph.pe_input_edges(name):
                upstream = rates[edge.tail]
                inflow += upstream
                outflow += descriptor.selectivity(edge.tail, name) * upstream
            rates[name] = p * outflow
            fic += p * inflow
        else:  # sink
            rates[name] = sum(rates[p] for p in graph.pred(name))
    return rates, fic


def best_case_internal_completeness(
    descriptor: ApplicationDescriptor,
) -> float:
    """BIC (Eq. 5): expected tuples/s processed by all PEs, no failures."""
    rate_table = descriptor.rate_table
    total = 0.0
    for config in descriptor.configuration_space:
        total += config.probability * rate_table.total_pe_input_rate(
            config.index
        )
    return total


def internal_completeness(strategy: ActivationStrategy) -> float:
    """IC (Eq. 8) under Eq. 14: sum_c P_C(c) * FIC rate(c) / BIC."""
    deployment = strategy.deployment
    descriptor = deployment.descriptor
    bic = best_case_internal_completeness(descriptor)
    if bic == 0.0:
        raise ModelError(
            "BIC is zero: the application processes no tuples in any"
            " configuration, IC is undefined"
        )
    fic = 0.0
    for config in descriptor.configuration_space:
        c = config.index
        _, fic_c = failure_aware_rates(
            deployment, c, pessimistic_phi(strategy, c)
        )
        fic += config.probability * fic_c
    return fic / bic
