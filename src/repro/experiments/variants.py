"""Construction of the six replication variants of Sec. 5.2.

For each generated application the evaluation compares: the three LAAR
strategies L.5 / L.6 / L.7 (FT-Search with IC targets 0.5, 0.6, 0.7), and
the baselines NR (derived from L.5's High activations), SR (static
replication) and GRD (greedy deactivation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.baselines import (
    greedy_deactivation,
    non_replicated,
    static_replication,
)
from repro.core.optimizer import (
    OptimizationProblem,
    SearchResult,
    ft_search,
)
from repro.core.strategy import ActivationStrategy
from repro.errors import ExperimentError
from repro.workloads.generator import GeneratedApplication

__all__ = ["VariantSet", "laar_variant_name", "build_variants"]

#: Variants that adapt activations to the input configuration at runtime.
DYNAMIC_VARIANTS = ("GRD",)
#: FT-Search's budget per (application, IC target), in expanded nodes,
#: so the strategies are the same on every host and worker count; picked
#: by the rule in docs/performance.md, "Figure budgets in nodes".
NODE_LIMIT = 4_000_000


def laar_variant_name(ic_target: float) -> str:
    """The paper's labels: 0.5 -> "L.5", 0.6 -> "L.6", ..."""
    text = f"{ic_target:g}"
    if text.startswith("0."):
        return "L" + text[1:]
    return f"L{text}"


@dataclass
class VariantSet:
    """All variants of one application, ready to deploy."""

    app: GeneratedApplication
    strategies: dict[str, ActivationStrategy]
    search_results: dict[str, SearchResult] = field(default_factory=dict)

    @property
    def names(self) -> tuple[str, ...]:
        ordered = ["NR", "SR", "GRD"] + sorted(
            name for name in self.strategies if name.startswith("L")
        )
        return tuple(name for name in ordered if name in self.strategies)

    def is_dynamic(self, name: str) -> bool:
        """Whether the variant switches activations at runtime.

        NR and SR use the same activation in every configuration, so they
        run without a Rate Monitor; GRD and the LAAR variants adapt.
        """
        if name not in self.strategies:
            raise ExperimentError(f"unknown variant {name!r}")
        return name.startswith("L") or name in DYNAMIC_VARIANTS

    def guaranteed_ic(self, name: str) -> float | None:
        result = self.search_results.get(name)
        return result.best_ic if result is not None else None


def build_variants(
    app: GeneratedApplication,
    ic_targets: tuple[float, ...] = (0.5, 0.6, 0.7),
    high_config_index: int = 1,
) -> VariantSet:
    """Build all six variants for one application.

    Raises :class:`ExperimentError` if FT-Search cannot produce a
    feasible strategy for some IC target within :data:`NODE_LIMIT` — the
    corpus generator calibrates applications so this is rare; callers
    drop such applications like the paper drops uninstantiable runs.
    """
    strategies: dict[str, ActivationStrategy] = {}
    search_results: dict[str, SearchResult] = {}

    # Strictest target first: an application with no strategy for it is
    # dropped after one search, not after all of them.
    for target in sorted(ic_targets, reverse=True):
        name = laar_variant_name(target)
        result = ft_search(
            OptimizationProblem(app.deployment, ic_target=target),
            node_limit=NODE_LIMIT,
            seed_incumbent=True,
        )
        if result.strategy is None:
            raise ExperimentError(
                f"FT-Search found no strategy for {app.name} at IC target"
                f" {target} ({result.outcome.value})"
            )
        strategies[name] = result.strategy.with_name(name)
        search_results[name] = result

    strategies["SR"] = static_replication(app.deployment)
    strategies["GRD"] = greedy_deactivation(app.deployment)

    reference = strategies[laar_variant_name(min(ic_targets))]
    strategies["NR"] = non_replicated(reference, high_config_index)

    return VariantSet(
        app=app, strategies=strategies, search_results=search_results
    )
