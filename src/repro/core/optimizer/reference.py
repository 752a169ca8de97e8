"""The retained reference implementation of FT-Search.

This is the original recursive, dict-keyed FT-Search core — the paper's
depth-first search, one node per step — kept as the behavioural oracle
for the block-vectorized production engine in
:mod:`repro.core.optimizer.vector`. Its search state is a function of
the current path alone: backtracking restores the host loads, FIC and
cost it replaced rather than subtracting, so no branch it left behind
leaves float residue that could tip a tie-break. The two must agree on
outcome, best cost/IC and strategy
(``tests/optimizer/test_ftsearch_equivalence.py`` asserts that over a
seeded corpus and a generated one, with no exemption); node counts and
prune statistics are this module's own, and because they are statistics
of the paper's DFS order the Fig. 4-6 study
(:mod:`repro.experiments.ftsearch_study`) runs on this engine. Keep this
module slow-but-obvious; performance work belongs in the block engine.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # import only for annotations: keeps the core light
    from repro.obs.progress import SearchProgress

from repro.core.deployment import ReplicaId
from repro.core.optimizer.ftsearch import (
    FTSearchConfig,
    _evaluate_warm_start,
    _replay_assignment,
)
from repro.core.optimizer.outcomes import SearchOutcome, SearchResult
from repro.core.optimizer.problem import OptimizationProblem
from repro.core.optimizer.stats import PruneRule, SearchStats
from repro.core.strategy import ActivationStrategy
from repro.errors import OptimizationError

__all__ = ["ReferenceFTSearch"]

# Domain values for one (PE, configuration) variable: activation states of
# (replica 0, replica 1). The all-inactive state is excluded by Eq. 12.
_BOTH = (True, True)
_ONLY_0 = (True, False)
_ONLY_1 = (False, True)

_REL_EPS = 1e-9

#: What ``_apply`` hands ``_undo``: the DOM trail, then the two host
#: loads, FIC and cost as they were before the assignment.
_Saved = tuple[list[int], float, float, float, float]


class _BudgetExpired(Exception):
    """Internal signal: unwind the recursion, the budget is spent."""


class ReferenceFTSearch:
    """One reference FT-Search run over a fixed :class:`OptimizationProblem`."""

    def __init__(
        self,
        problem: OptimizationProblem,
        config: FTSearchConfig | None = None,
        progress: Optional[SearchProgress] = None,
    ) -> None:
        """``progress`` is an optional
        :class:`repro.obs.progress.SearchProgress`; the hook sits at
        node entry, after the budget check, and snapshots are keyed on
        the deterministic node counter, so attaching it never changes
        what the search returns.
        """
        if problem.deployment.replication_factor != 2:
            raise OptimizationError(
                "FT-Search only supports two-fold replication (k=2), got"
                f" k={problem.deployment.replication_factor}"
            )
        self._problem = problem
        self._config = config or FTSearchConfig()
        self._progress = progress
        self._prepare()

    # ------------------------------------------------------------------
    # Static problem data
    # ------------------------------------------------------------------

    def _prepare(self) -> None:
        deployment = self._problem.deployment
        descriptor = deployment.descriptor
        graph = descriptor.graph
        space = descriptor.configuration_space
        rate_table = descriptor.rate_table

        self._pes: tuple[str, ...] = graph.pes
        self._pe_pos = {pe: i for i, pe in enumerate(self._pes)}
        self._config_order: tuple[int, ...] = space.sorted_by_total_rate(
            descending=self._config.hungry_configs_first
        )
        self._n_configs = len(space)
        self._prob = [space[c].probability for c in range(self._n_configs)]

        # Variable order: most resource-hungry configuration first, PEs in
        # topological order within each configuration.
        self._vars: list[tuple[int, str]] = [
            (c, pe) for c in self._config_order for pe in self._pes
        ]
        self._depth_of = {var: d for d, var in enumerate(self._vars)}
        self._n_vars = len(self._vars)

        # Per-(PE, config) CPU load of one active replica, and hosts.
        self._load = {
            (pe, c): rate_table.replica_load(pe, c)
            for pe in self._pes
            for c in range(self._n_configs)
        }
        self._hosts = {
            pe: (
                deployment.host_of(ReplicaId(pe, 0)),
                deployment.host_of(ReplicaId(pe, 1)),
            )
            for pe in self._pes
        }
        self._capacity = {
            h.name: h.capacity for h in deployment.hosts
        }

        # Predecessor structure split by kind, with selectivities for the
        # Delta-hat recursion and plain sums for the FIC integrand.
        self._pe_preds: dict[str, list[tuple[str, float]]] = {}
        self._source_inflow_sel: dict[tuple[str, int], float] = {}
        self._source_inflow_sum: dict[tuple[str, int], float] = {}
        self._pe_succs: dict[str, list[str]] = {pe: [] for pe in self._pes}
        for pe in self._pes:
            pe_preds: list[tuple[str, float]] = []
            for edge in graph.pe_input_edges(pe):
                selectivity = descriptor.selectivity(edge.tail, pe)
                if edge.tail in self._pe_pos:
                    pe_preds.append((edge.tail, selectivity))
                    self._pe_succs[edge.tail].append(pe)
                else:  # source predecessor: Delta-hat equals Delta
                    for c in range(self._n_configs):
                        key = (pe, c)
                        rate = rate_table.rate(edge.tail, c)
                        self._source_inflow_sel[key] = (
                            self._source_inflow_sel.get(key, 0.0)
                            + selectivity * rate
                        )
                        self._source_inflow_sum[key] = (
                            self._source_inflow_sum.get(key, 0.0) + rate
                        )
            self._pe_preds[pe] = pe_preds
        self._has_source_pred = {
            pe: any(
                self._source_inflow_sum.get((pe, c), 0.0) > 0.0
                for c in range(self._n_configs)
            )
            for pe in self._pes
        }

        # BIC per configuration (probability-weighted) and in total.
        self._bic_c = [
            self._prob[c] * rate_table.total_pe_input_rate(c)
            for c in range(self._n_configs)
        ]
        self._bic = sum(self._bic_c)
        if self._bic <= 0:
            raise OptimizationError(
                "BIC is zero: the application processes no tuples, the IC"
                " constraint is undefined"
            )
        self._fic_target = self._problem.ic_target * self._bic

        # COST bound: minimum (single-replica) cost of each variable, with
        # suffix sums over the variable order for O(1) lower bounds.
        min_cost = [
            self._prob[c] * self._load[(pe, c)] for (c, pe) in self._vars
        ]
        self._suffix_min_cost = [0.0] * (self._n_vars + 1)
        for d in range(self._n_vars - 1, -1, -1):
            self._suffix_min_cost[d] = (
                self._suffix_min_cost[d + 1] + min_cost[d]
            )

        # BIC contribution of whole configurations ordered after a given
        # position in the variable order (for the COMPL upper bound).
        self._suffix_bic_by_config: list[float] = [0.0] * (
            len(self._config_order) + 1
        )
        for i in range(len(self._config_order) - 1, -1, -1):
            c = self._config_order[i]
            self._suffix_bic_by_config[i] = (
                self._suffix_bic_by_config[i + 1] + self._bic_c[c]
            )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def run(self) -> SearchResult:
        """Execute the search and classify the outcome."""
        self._stats = SearchStats(depth=self._n_vars)

        # Mutable search state.
        self._assigned: list[Optional[tuple[bool, bool]]] = (
            [None] * self._n_vars
        )
        self._delta_hat: list[float] = [0.0] * self._n_vars
        self._host_load: dict[tuple[str, int], float] = {
            (host, c): 0.0
            for host in self._capacity
            for c in range(self._n_configs)
        }
        self._dom_excluded: list[bool] = [False] * self._n_vars
        self._fic_assigned = 0.0
        self._cost_assigned = 0.0

        self._best_cost = math.inf
        self._best_assignment: Optional[list[tuple[bool, bool]]] = None
        self._best_ic = 0.0
        self._best_nodes: Optional[int] = None
        self._first_cost: Optional[float] = None
        self._first_nodes: Optional[int] = None

        if self._config.seed_incumbent:
            self._install_greedy_incumbent()
        if self._config.warm_start is not None:
            self._install_warm_incumbent()

        exhausted = True
        try:
            self._descend(0)
        except _BudgetExpired:
            exhausted = False
        if self._progress is not None:
            self._progress.finish(
                self._stats.nodes_expanded,
                self._incumbent_cost(),
                self._prunes_by_name(),
            )

        strategy = None
        if self._best_assignment is not None:
            strategy = self._build_strategy(self._best_assignment)

        if strategy is not None:
            outcome = (
                SearchOutcome.OPTIMAL if exhausted else SearchOutcome.FEASIBLE
            )
        else:
            outcome = (
                SearchOutcome.INFEASIBLE if exhausted else SearchOutcome.TIMEOUT
            )
        return SearchResult(
            outcome=outcome,
            strategy=strategy,
            best_cost=self._best_cost if strategy is not None else math.inf,
            best_ic=self._best_ic,
            first_solution_cost=self._first_cost,
            first_solution_nodes=self._first_nodes,
            best_solution_nodes=self._best_nodes,
            stats=self._stats,
        )

    # ------------------------------------------------------------------
    # Progress telemetry helpers
    # ------------------------------------------------------------------

    def _incumbent_cost(self) -> Optional[float]:
        """The best cost found so far, None while no incumbent exists."""
        return None if math.isinf(self._best_cost) else self._best_cost

    def _prunes_by_name(self) -> dict[str, int]:
        """Current prune counts keyed by rule name (for snapshots)."""
        return {
            rule.value: self._stats.prune_counts.get(rule, 0)
            for rule in PruneRule
        }

    # ------------------------------------------------------------------
    # Incumbent seeding
    # ------------------------------------------------------------------

    def _install_greedy_incumbent(self) -> None:
        """Try the greedy-deactivation strategy as an initial incumbent.

        When the GRD strategy (CPU-feasible by construction) also happens
        to satisfy the IC target, it becomes the starting best solution:
        the search is anytime-safe from the first node and COST pruning
        bites immediately. Failures are silently ignored — seeding is a
        pure accelerator.
        """
        from repro.core.baselines import greedy_deactivation

        try:
            strategy = greedy_deactivation(self._problem.deployment)
        except OptimizationError:
            return
        values = [
            (
                strategy.is_active(ReplicaId(pe, 0), c),
                strategy.is_active(ReplicaId(pe, 1), c),
            )
            for (c, pe) in self._vars
        ]
        # Evaluate through the shared clean replay (same float path as
        # recorded solutions and warm starts).
        _, ic, cost = _replay_assignment(self._problem, self._vars, values)
        if ic < self._problem.ic_target:
            return
        self._best_cost = cost
        self._best_ic = ic
        self._best_assignment = list(values)
        self._best_nodes = 0

    def _install_warm_incumbent(self) -> None:
        """Try the ``warm_start`` strategy as the initial incumbent.

        Same shared evaluation helper and strict-improvement install rule
        as the block engine's layout, so warm-started runs of the two
        engines start from a bit-identical incumbent.
        """
        payload = _evaluate_warm_start(
            self._problem, self._config, self._vars
        )
        if payload is None:
            return
        values, ic, cost = payload
        if self._best_assignment is not None and not (
            cost < self._best_cost * (1 - _REL_EPS)
        ):
            return
        self._best_cost = cost
        self._best_ic = ic
        self._best_assignment = list(values)
        self._best_nodes = 0

    # ------------------------------------------------------------------
    # Recursion
    # ------------------------------------------------------------------

    def _descend(self, depth: int) -> None:
        if depth == self._n_vars:
            self._record_solution()
            return

        self._stats.nodes_expanded += 1
        self._check_budget()
        if self._progress is not None and self._progress.on_node(
            self._stats.nodes_expanded, depth
        ):
            self._progress.snapshot(
                self._stats.nodes_expanded,
                self._incumbent_cost(),
                self._prunes_by_name(),
            )

        c, pe = self._vars[depth]
        height = self._n_vars - depth
        disabled = self._config.disabled_rules

        for value in self._ordered_values(depth, c, pe):
            self._stats.values_tried += 1
            active_count = (1 if value[0] else 0) + (1 if value[1] else 0)

            # --- CPU pruning (Eq. 11, strict inequality) -----------------
            load = self._load[(pe, c)]
            host0, host1 = self._hosts[pe]
            if PruneRule.CPU not in disabled:
                cpu_ok = True
                if value[0] and (
                    self._host_load[(host0, c)] + load
                    >= self._capacity[host0] * (1 - _REL_EPS)
                ):
                    cpu_ok = False
                if value[1] and (
                    self._host_load[(host1, c)] + load
                    >= self._capacity[host1] * (1 - _REL_EPS)
                ):
                    cpu_ok = False
                if not cpu_ok:
                    self._stats.record_prune(PruneRule.CPU, height)
                    continue

            # --- Delta-hat and FIC contribution of this value -----------
            if value == _BOTH:
                delta_hat = self._inflow_selectivity_weighted(depth, c, pe)
                fic_contrib = self._prob[c] * self._inflow_plain(depth, c, pe)
            else:
                delta_hat = 0.0
                fic_contrib = 0.0

            # --- COMPL pruning (IC upper bound) --------------------------
            if PruneRule.COMPLETENESS not in disabled:
                fic_upper = (
                    self._fic_assigned
                    + fic_contrib
                    + self._fic_upper_bound_rest(depth, c, pe, delta_hat)
                )
                if fic_upper < self._fic_target - _REL_EPS * self._bic:
                    self._stats.record_prune(PruneRule.COMPLETENESS, height)
                    continue

            # --- COST pruning (cost lower bound) -------------------------
            value_cost = self._prob[c] * load * active_count
            if PruneRule.COST not in disabled:
                cost_lower = (
                    self._cost_assigned
                    + value_cost
                    + self._suffix_min_cost[depth + 1]
                )
                if cost_lower >= self._best_cost * (1 - _REL_EPS):
                    self._stats.record_prune(PruneRule.COST, height)
                    continue

            # --- Accept the value, recurse, undo -------------------------
            saved = self._apply(depth, c, pe, value, delta_hat, fic_contrib,
                                value_cost)
            self._descend(depth + 1)
            self._undo(depth, c, pe, saved)

    def _ordered_values(
        self, depth: int, c: int, pe: str
    ) -> list[tuple[bool, bool]]:
        """Value ordering: "both active" first (maximizes IC headroom),
        then the single replica whose host is currently less loaded.

        Trying _BOTH first makes the first feasible solution behave like a
        greedy maximal-replication strategy, which the CPU prune then
        trims exactly where hosts saturate — the search reaches a feasible
        leaf quickly, enabling COST pruning early (the anytime behaviour
        Fig. 5 measures).
        """
        host0, host1 = self._hosts[pe]
        load0 = self._host_load[(host0, c)]
        load1 = self._host_load[(host1, c)]
        singles = (
            [_ONLY_0, _ONLY_1] if load0 <= load1 else [_ONLY_1, _ONLY_0]
        )
        if self._dom_excluded[depth]:
            return singles
        return [_BOTH] + singles

    # ------------------------------------------------------------------
    # Incremental bookkeeping
    # ------------------------------------------------------------------

    def _inflow_selectivity_weighted(
        self, depth: int, c: int, pe: str
    ) -> float:
        """sum_j delta(x_j, pe) * Delta-hat(x_j, c) over assigned preds."""
        total = self._source_inflow_sel.get((pe, c), 0.0)
        for pred, selectivity in self._pe_preds[pe]:
            total += selectivity * self._delta_hat[self._depth_of[(c, pred)]]
        return total

    def _inflow_plain(self, depth: int, c: int, pe: str) -> float:
        """sum_j Delta-hat(x_j, c) over predecessors (FIC integrand)."""
        total = self._source_inflow_sum.get((pe, c), 0.0)
        for pred, _ in self._pe_preds[pe]:
            total += self._delta_hat[self._depth_of[(c, pred)]]
        return total

    def _fic_upper_bound_rest(
        self, depth: int, c: int, pe: str, delta_hat_here: float
    ) -> float:
        """Maximum FIC the variables after ``depth`` could still add.

        For the rest of the current configuration, walk the remaining PEs
        in topological order assuming full replication (phi = 1) except
        where DOM has excluded it; whole configurations not yet started
        contribute their full BIC share. Activations only ever reduce
        Delta-hat, so this is a sound upper bound.
        """
        position_in_config = self._pe_pos[pe]
        config_position = depth // len(self._pes)

        upper: dict[str, float] = {}
        total = 0.0
        for pos in range(position_in_config + 1, len(self._pes)):
            rest_pe = self._pes[pos]
            var_depth = self._depth_of[(c, rest_pe)]
            if self._dom_excluded[var_depth]:
                upper[rest_pe] = 0.0
                continue
            inflow_sel = self._source_inflow_sel.get((rest_pe, c), 0.0)
            inflow_sum = self._source_inflow_sum.get((rest_pe, c), 0.0)
            for pred, selectivity in self._pe_preds[rest_pe]:
                if pred == pe:
                    value = delta_hat_here
                elif pred in upper:
                    value = upper[pred]
                else:
                    value = self._delta_hat[self._depth_of[(c, pred)]]
                inflow_sel += selectivity * value
                inflow_sum += value
            upper[rest_pe] = inflow_sel
            total += self._prob[c] * inflow_sum

        # Configurations wholly after the current one in exploration order.
        total += self._suffix_bic_by_config[config_position + 1]
        return total

    def _apply(
        self,
        depth: int,
        c: int,
        pe: str,
        value: tuple[bool, bool],
        delta_hat: float,
        fic_contrib: float,
        value_cost: float,
    ) -> _Saved:
        """Assign ``value`` at ``depth``; return what :meth:`_undo`
        restores, so that no path leaves float residue behind: the
        accumulators at a leaf are then the depth-order sums
        :func:`_replay_assignment` computes, bit for bit."""
        host0, host1 = self._hosts[pe]
        trail: list[int] = []
        saved = (
            trail,
            self._host_load[(host0, c)],
            self._host_load[(host1, c)],
            self._fic_assigned,
            self._cost_assigned,
        )
        self._assigned[depth] = value
        self._delta_hat[depth] = delta_hat
        load = self._load[(pe, c)]
        if value[0]:
            self._host_load[(host0, c)] += load
        if value[1]:
            self._host_load[(host1, c)] += load
        self._fic_assigned += fic_contrib
        self._cost_assigned += value_cost

        if delta_hat == 0.0 and (
            PruneRule.DOMAIN not in self._config.disabled_rules
        ):
            self._propagate_domain(c, pe, trail)
        return saved

    def _undo(self, depth: int, c: int, pe: str, saved: _Saved) -> None:
        trail, load0, load1, self._fic_assigned, self._cost_assigned = saved
        for excluded_depth in trail:
            self._dom_excluded[excluded_depth] = False
        host0, host1 = self._hosts[pe]
        self._host_load[(host0, c)] = load0
        self._host_load[(host1, c)] = load1
        self._assigned[depth] = None
        self._delta_hat[depth] = 0.0

    def _propagate_domain(self, c: int, pe: str, trail: list[int]) -> None:
        """Forward domain propagation (DOM, Sec. 4.5).

        ``pe`` just became dead in configuration ``c`` (its Delta-hat is
        zero under the pessimistic model). For every successor whose
        predecessors are now *all* incapable of delivering tuples in
        ``c``, full replication cannot improve IC ("no replication
        forwarding"), so remove the "both active" value from its domain;
        recurse, because the exclusion makes the successor dead as well.
        """
        for succ in self._pe_succs[pe]:
            var_depth = self._depth_of[(c, succ)]
            if self._assigned[var_depth] is not None:
                continue
            if self._dom_excluded[var_depth]:
                continue
            if self._has_source_pred[succ] and (
                self._source_inflow_sum.get((succ, c), 0.0) > 0.0
            ):
                continue
            dead = True
            for pred, _ in self._pe_preds[succ]:
                pred_depth = self._depth_of[(c, pred)]
                pred_value = self._assigned[pred_depth]
                if pred_value is None:
                    if not self._dom_excluded[pred_depth]:
                        dead = False
                        break
                elif self._delta_hat[pred_depth] > 0.0:
                    dead = False
                    break
            if not dead:
                continue
            self._dom_excluded[var_depth] = True
            trail.append(var_depth)
            self._stats.record_prune(
                PruneRule.DOMAIN, self._n_vars - var_depth
            )
            self._propagate_domain(c, succ, trail)

    # ------------------------------------------------------------------
    # Solutions and budget
    # ------------------------------------------------------------------

    def _record_solution(self) -> None:
        disabled = self._config.disabled_rules
        # With pruning rules disabled, the constraints they enforced
        # during descent must hold at the leaf instead.
        if PruneRule.CPU in disabled:
            for (host, _), load in self._host_load.items():
                if load >= self._capacity[host] * (1 - _REL_EPS):
                    return
        if (
            PruneRule.COMPLETENESS in disabled
            and self._fic_assigned < self._fic_target - _REL_EPS * self._bic
        ):
            return

        ic = self._fic_assigned / self._bic
        cost = self._cost_assigned
        self._stats.solutions_found += 1
        nodes = self._stats.nodes_expanded
        if self._first_cost is None:
            self._first_cost = cost
            self._first_nodes = nodes
        if cost < self._best_cost * (1 - _REL_EPS) or (
            self._best_assignment is None
        ):
            self._best_cost = cost
            self._best_ic = ic
            self._best_assignment = [
                value for value in self._assigned if value is not None
            ]
            self._best_nodes = nodes

    def _check_budget(self) -> None:
        if (
            self._config.node_limit is not None
            and self._stats.nodes_expanded > self._config.node_limit
        ):
            raise _BudgetExpired

    def _build_strategy(
        self, assignment: list[tuple[bool, bool]]
    ) -> ActivationStrategy:
        activations: dict[tuple[ReplicaId, int], bool] = {}
        for depth, (c, pe) in enumerate(self._vars):
            value = assignment[depth]
            activations[(ReplicaId(pe, 0), c)] = value[0]
            activations[(ReplicaId(pe, 1), c)] = value[1]
        name = f"L{self._problem.ic_target:g}"
        return ActivationStrategy(
            self._problem.deployment, activations, name=name
        )


