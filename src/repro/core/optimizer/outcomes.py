"""Search outcome classification (Fig. 4 of the paper).

FT-Search is an anytime branch-and-bound; a run terminates in one of four
ways, labelled in the paper as:

* **BST** — the search space was exhausted and the best feasible solution
  found is provably optimal.
* **SOL** — the budget expired after at least one feasible (though not
  necessarily optimal) solution was found.
* **NUL** — the search space was exhausted without finding any feasible
  solution: the instance is provably infeasible.
* **TMO** — the budget expired before any feasible solution was found (and
  infeasibility was not proven either).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.optimizer.stats import SearchStats
    from repro.core.strategy import ActivationStrategy

__all__ = ["SearchOutcome", "SearchResult"]


class SearchOutcome(enum.Enum):
    """How an FT-Search run terminated."""

    OPTIMAL = "BST"
    FEASIBLE = "SOL"
    INFEASIBLE = "NUL"
    TIMEOUT = "TMO"

    @property
    def found_solution(self) -> bool:
        return self in (SearchOutcome.OPTIMAL, SearchOutcome.FEASIBLE)

    @property
    def is_proof(self) -> bool:
        """True when the search space was exhausted (BST or NUL)."""
        return self in (SearchOutcome.OPTIMAL, SearchOutcome.INFEASIBLE)


@dataclass
class SearchResult:
    """Everything an FT-Search run reports.

    Cost figures are in the units of Eq. 13 (CPU cycle-seconds per billing
    period). The first- and best-solution fields feed the Fig. 5
    histograms (cost and time ratios between the first solution and the
    optimum), with time counted in nodes expanded when the solution was
    found, so they are the same on every host.
    """

    outcome: SearchOutcome
    strategy: Optional["ActivationStrategy"]
    best_cost: float
    best_ic: float
    first_solution_cost: Optional[float]
    first_solution_nodes: Optional[int]
    best_solution_nodes: Optional[int]
    stats: "SearchStats" = field(repr=False)

    @property
    def found_solution(self) -> bool:
        return self.outcome.found_solution

    @property
    def cost_ratio_first_to_best(self) -> Optional[float]:
        """Fig. 5a's statistic; only meaningful for OPTIMAL outcomes."""
        if (
            self.outcome is not SearchOutcome.OPTIMAL
            or self.first_solution_cost is None
            or self.best_cost == 0
        ):
            return None
        return self.first_solution_cost / self.best_cost

    @property
    def node_ratio_first_to_best(self) -> Optional[float]:
        """Fig. 5b's statistic; only meaningful for OPTIMAL outcomes."""
        if (
            self.outcome is not SearchOutcome.OPTIMAL
            or self.first_solution_nodes is None
            or self.best_solution_nodes is None
            or self.best_solution_nodes == 0
        ):
            return None
        return self.first_solution_nodes / self.best_solution_nodes
