"""The LAAR off-line optimizer: problem statement and FT-Search.

Implements the cost-minimization problem of Eq. 9-12 and the FT-Search
branch-and-bound algorithm of Sec. 4.5, including the four pruning rules
(CPU, COMPL, COST, DOM), outcome classification (BST/SOL/NUL/TMO), and the
per-rule pruning statistics behind Fig. 6.
"""

from repro.core.optimizer.ftsearch import FTSearchConfig, ft_search
from repro.core.optimizer.outcomes import SearchOutcome, SearchResult
from repro.core.optimizer.problem import OptimizationProblem, StrategyEvaluation
from repro.core.optimizer.reference import ReferenceFTSearch
from repro.core.optimizer.stats import PruneRule, SearchStats
from repro.core.optimizer.vector import VectorFTSearch

__all__ = [
    "FTSearchConfig",
    "ReferenceFTSearch",
    "VectorFTSearch",
    "ft_search",
    "SearchOutcome",
    "SearchResult",
    "OptimizationProblem",
    "StrategyEvaluation",
    "PruneRule",
    "SearchStats",
]
