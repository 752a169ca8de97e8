"""LAAR's core model: applications, deployments, IC, cost, and FT-Search.

This package implements the paper's primary contribution in its off-line
form: the service model of Section 3 (application graphs, descriptors,
input configurations), the formal machinery of Section 4 (expected rates,
the internal-completeness metric, the cost model, the failure model, replica
activation strategies) and the FT-Search optimizer of Section 4.5 with the
NR/SR/GRD baselines of Section 5.2.
"""

from repro.core.altmetrics import (
    average_replication_factor,
    output_completeness,
)
from repro.core.application import ApplicationGraph, Component, ComponentKind, Edge
from repro.core.baselines import (
    greedy_deactivation,
    non_replicated,
    static_replication,
)
from repro.core.configurations import (
    ConfigurationSpace,
    InputConfiguration,
    bin_rates,
)
from repro.core.cost import (
    CostBreakdown,
    cost_breakdown,
    cpu_constraint_violations,
    host_load_table,
    strategy_cost,
)
from repro.core.deployment import Host, ReplicaId, ReplicatedDeployment
from repro.core.descriptor import ApplicationDescriptor, EdgeProfile
from repro.core.ic import (
    best_case_internal_completeness,
    failure_aware_rates,
    internal_completeness,
    pessimistic_phi,
)
from repro.core.optimizer import (
    FTSearchConfig,
    OptimizationProblem,
    PruneRule,
    SearchOutcome,
    SearchResult,
    SearchStats,
    StrategyEvaluation,
    ft_search,
)
from repro.core.rates import RateTable, expected_rates
from repro.core.render import host_load_report, strategy_table
from repro.core.strategy import ActivationStrategy

__all__ = [
    "ApplicationGraph",
    "Component",
    "ComponentKind",
    "Edge",
    "ApplicationDescriptor",
    "EdgeProfile",
    "ConfigurationSpace",
    "InputConfiguration",
    "bin_rates",
    "Host",
    "ReplicaId",
    "ReplicatedDeployment",
    "ActivationStrategy",
    "RateTable",
    "expected_rates",
    "pessimistic_phi",
    "failure_aware_rates",
    "best_case_internal_completeness",
    "internal_completeness",
    "strategy_cost",
    "cost_breakdown",
    "CostBreakdown",
    "host_load_table",
    "cpu_constraint_violations",
    "static_replication",
    "non_replicated",
    "greedy_deactivation",
    "FTSearchConfig",
    "ft_search",
    "OptimizationProblem",
    "StrategyEvaluation",
    "SearchOutcome",
    "SearchResult",
    "PruneRule",
    "SearchStats",
    "output_completeness",
    "average_replication_factor",
    "strategy_table",
    "host_load_report",
]
