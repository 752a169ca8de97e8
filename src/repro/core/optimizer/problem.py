"""The LAAR cost-minimization problem (Eq. 9-12).

    minimize   cost(s)                                   (Eq. 9)
    subject to IC(s) >= SLA constraint                    (Eq. 10)
               no host overloaded in any configuration    (Eq. 11)
               >= 1 active replica of every PE everywhere (Eq. 12)

The IC constraint is evaluated under the pessimistic failure model
(Eq. 14) so that the promised IC is a lower bound on the IC observed on a
real deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost import cpu_constraint_violations, strategy_cost
from repro.core.deployment import ReplicatedDeployment
from repro.core.ic import internal_completeness
from repro.core.strategy import ActivationStrategy
from repro.errors import OptimizationError

__all__ = ["OptimizationProblem", "StrategyEvaluation"]

_IC_TOLERANCE = 1e-9


@dataclass(frozen=True)
class StrategyEvaluation:
    """The result of checking one strategy against the problem."""

    cost: float
    ic: float
    cpu_feasible: bool
    ic_feasible: bool

    @property
    def feasible(self) -> bool:
        return self.cpu_feasible and self.ic_feasible


@dataclass(frozen=True)
class OptimizationProblem:
    """One instance of Eq. 9-12.

    Parameters
    ----------
    deployment:
        The replicated deployment (fixes the application, hosts, and
        theta). FT-Search requires ``replication_factor == 2``.
    ic_target:
        The SLA constraint of Eq. 10, in [0, 1].

    FT-Search optimizes IC under Eq. 14 and cost per unit time (T = 1);
    :meth:`evaluate` judges a strategy by the same two figures.
    """

    deployment: ReplicatedDeployment
    ic_target: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ic_target <= 1.0:
            raise OptimizationError(
                f"IC target must be in [0, 1], got {self.ic_target}"
            )

    def evaluate(self, strategy: ActivationStrategy) -> StrategyEvaluation:
        """Check a strategy against Eq. 10-11 and compute its cost.

        Eq. 12 is enforced structurally by :class:`ActivationStrategy`.
        """
        if strategy.deployment is not self.deployment:
            raise OptimizationError(
                "strategy was built for a different deployment"
            )
        cost = strategy_cost(strategy)
        ic = internal_completeness(strategy)
        cpu_ok = not cpu_constraint_violations(strategy)
        ic_ok = ic >= self.ic_target - _IC_TOLERANCE
        return StrategyEvaluation(
            cost=cost, ic=ic, cpu_feasible=cpu_ok, ic_feasible=ic_ok
        )
