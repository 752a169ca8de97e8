"""FT-Search: branch-and-bound search for replica activation strategies.

Section 4.5 of the paper: FT-Search is a depth-first search with
backtracking over the tree of possible PE activation states for the
possible input configurations. It is restricted to two-fold replication
(k = 2), so each (PE, configuration) variable has the three-value domain
{both replicas active, only replica 0, only replica 1} — Eq. 12 forbids the
all-inactive state — giving a search space of size 3^(|P| * |C|).

Four pruning strategies cut the tree (Sec. 4.5):

* **CPU** — a partial assignment already overloads some host in some
  configuration (violates Eq. 11).
* **COMPL** — an upper bound on the achievable IC (exact contributions of
  assigned variables plus the maximum the unassigned ones could add) falls
  below the IC goal.
* **COST** — once a feasible solution is known, a lower bound on the cost
  of any completion (assigned cost plus one-active-replica cost for every
  unassigned variable) is no better than the best solution found. The
  block engine adds the fractional-knapsack cost of the second replicas
  that can close the IC deficit (:class:`SearchLayout`'s
  ``d_knapsack``), zero once the target is met; the oracle keeps the
  paper's bound.
* **DOM** — forward domain propagation: if in some configuration all the
  predecessors of a PE can contribute nothing under the pessimistic
  failure model (every predecessor PE has at most one active replica, or
  is itself dead), then activating both replicas of that PE cannot improve
  IC while it does increase cost, so the "both active" value is removed
  from its domain ("no replication forwarding").

The exploration respects the topological order of the application graph
within each configuration (required for incremental Delta-hat updates) and
visits the most resource-hungry configurations first — the heuristic the
paper reports makes CPU and IC constraints fail faster.

The search is *anytime*: it keeps the best solution found so far and, on
budget expiry, returns it (outcome SOL) or, when the space was exhausted,
proves optimality (BST) or infeasibility (NUL).

Implementation note — the package keeps one production engine and one
oracle. This module owns what they share: the run configuration
(:class:`FTSearchConfig`), the clean full-assignment evaluator
(:func:`_replay_assignment`), the warm-start evaluator, and
:class:`SearchLayout` — the flat per-depth view of one problem (the
variable order is ``config_pos * n_pes + pe_pos``, so a depth's
configuration and PE position are plain arithmetic) that the
block-vectorized engine of :mod:`repro.core.optimizer.vector` advances
over. :func:`ft_search` always runs that engine. The original recursive,
dict-keyed implementation is retained in
:mod:`repro.core.optimizer.reference` as the behavioural oracle: the
block engine must return the same outcome, optimal cost, IC and strategy;
node counts and per-rule prune statistics are engine-specific.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # import only for annotations: keeps the core light
    from repro.obs.progress import SearchProgress

from repro.core.deployment import ReplicaId
from repro.core.optimizer.outcomes import SearchOutcome, SearchResult
from repro.core.optimizer.problem import OptimizationProblem
from repro.core.optimizer.stats import PruneRule, SearchStats
from repro.core.strategy import ActivationStrategy
from repro.errors import OptimizationError, ReproError

__all__ = ["FTSearchConfig", "SearchLayout", "Seed", "ft_search"]

# Domain values for one (PE, configuration) variable: activation states of
# (replica 0, replica 1). The all-inactive state is excluded by Eq. 12.
# The block engine encodes them as integers; code 0 must stay "both
# active" (the value DOM removes), codes 1/2 are the single-replica values.
_BOTH = (True, True)
_ONLY_0 = (True, False)
_ONLY_1 = (False, True)
_VALUE_TUPLES = (_BOTH, _ONLY_0, _ONLY_1)
_CODE_OF_VALUE = {_BOTH: 0, _ONLY_0: 1, _ONLY_1: 2}

# PruneRule <-> flat counter index (the block engine counts prunes in
# plain lists and rebuilds the SearchStats dicts once at the end).
_RULES = (PruneRule.CPU, PruneRule.COMPLETENESS, PruneRule.COST,
          PruneRule.DOMAIN)
_CPU_I, _COMPL_I, _COST_I, _DOM_I = 0, 1, 2, 3

_REL_EPS = 1e-9

# One PE position's COMPL walk (see SearchLayout): (position, terms) per
# later PE, terms as (code, ref, coefficient column).
_WalkPlan = tuple[
    tuple[int, tuple[tuple[int, int, np.ndarray], ...]], ...
]
# One depth's DOM plan: (position, height, preds) per later PE it can
# exclude, preds as (assigned, position).
_DomPlan = tuple[tuple[int, int, tuple[tuple[bool, int], ...]], ...]


#: The default search budget, in expanded nodes: what app-2014 (24 PEs,
#: IC 0.5, greedy-seeded) reaches in the 10 s wall clock this budget
#: replaced, by the rule in docs/performance.md § "Figure budgets in
#: nodes". A budget counted in nodes makes every result a pure function
#: of the search's inputs.
NODE_LIMIT = 20_000_000


@dataclass(frozen=True)
class FTSearchConfig:
    """Budget and mode switches for one FT-Search run.

    ``node_limit`` bounds the number of expanded nodes (the paper cut
    its search with a 10-minute wall clock instead); ``None`` searches
    until the space is exhausted.

    ``disabled_rules`` turns individual pruning strategies off — the
    ablation knob behind the Fig. 6 analysis. Disabling a rule never
    changes *what* is returned, only how fast: the CPU and COMPL rules
    double as constraint enforcement during descent, so with either
    disabled the corresponding constraint is checked at the leaves
    instead; COST and DOM are pure accelerators.

    ``seed_incumbent`` starts the branch-and-bound with the greedy
    (GRD-style) strategy as an initial incumbent when that strategy
    happens to satisfy the IC target: the search can then never return
    empty-handed on such instances, and COST pruning is active from the
    first node. The paper's algorithm has no seeding, so the FT-Search
    study (Figs. 4-6) runs with it disabled; the deployment pipeline
    enables it.

    ``hungry_configs_first`` controls the configuration exploration
    order. The paper reports that visiting the most resource-hungry
    configurations first "improves execution time by making both the CPU
    and IC constraints fail faster" — setting this to False reverses the
    order, which the config-order ablation bench uses to test that claim.

    ``warm_start`` installs a previous :class:`ActivationStrategy` as the
    initial incumbent (the control plane's re-planning path: re-running
    the search after rate drift, seeded with the strategy currently in
    production). The strategy is re-keyed onto this problem's deployment
    and installed only when it is feasible *for this problem* — IC target
    met and every host within capacity — because
    an infeasible incumbent would make the COST bound unsound. Like
    ``seed_incumbent`` it is a pure accelerator: the search returns the
    same optimal cost and strategy as a cold run, expanding at most as
    many nodes. Unusable warm starts (wrong shape, infeasible here) are
    silently ignored.

    A search runs in the calling process, so its node counts and prune
    statistics are deterministic. Callers that want parallelism fan
    whole searches out over the experiment fabric.
    """

    node_limit: Optional[int] = NODE_LIMIT
    disabled_rules: frozenset = frozenset()
    seed_incumbent: bool = False
    hungry_configs_first: bool = True
    warm_start: Optional[ActivationStrategy] = None

    def __post_init__(self) -> None:
        limit = self.node_limit
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int)
            or limit <= 0
        ):
            raise OptimizationError(
                f"node_limit must be a positive int or None, got {limit!r}"
            )
        for rule in self.disabled_rules:
            if not isinstance(rule, PruneRule):
                raise OptimizationError(
                    f"disabled_rules must contain PruneRule values,"
                    f" got {rule!r}"
                )
        if self.warm_start is not None and not isinstance(
            self.warm_start, ActivationStrategy
        ):
            raise OptimizationError(
                "warm_start must be an ActivationStrategy or None, got"
                f" {self.warm_start!r}"
            )


def _evaluate_warm_start(
    problem: OptimizationProblem,
    config: FTSearchConfig,
    vars_: list[tuple[int, str]],
) -> Optional[tuple[list[tuple[bool, bool]], float, float]]:
    """Evaluate ``config.warm_start`` against ``problem``.

    Re-keys the warm strategy onto this problem's deployment (the
    re-planner hands in a strategy bound to the *previous* deployment of
    the same shape), then checks feasibility under this problem's rates:
    every host strictly within capacity in every configuration (Eq. 11,
    with the search's epsilon) and the IC target met. Returns
    ``(values, ic, cost)`` with one
    ``(replica0_active, replica1_active)`` tuple per variable in ``vars_``
    order, or None when the warm start is unusable.

    Cost and IC come from :func:`_replay_assignment`, so the values
    installed as the incumbent are bit-identical to what a cold search
    records for the same assignment. Shared verbatim by both
    engines so warm-started runs start from a bit-identical incumbent.
    """
    warm = config.warm_start
    assert warm is not None
    deployment = problem.deployment

    values: list[tuple[bool, bool]] = []
    try:
        for c, pe in vars_:
            a0 = warm.is_active(ReplicaId(pe, 0), c)
            a1 = warm.is_active(ReplicaId(pe, 1), c)
            if not (a0 or a1):  # Eq. 12: outside the search's domain
                return None
            values.append((a0, a1))
    except ReproError:
        return None

    host_load, ic, cost = _replay_assignment(problem, vars_, values)

    # CPU feasibility (Eq. 11, the search's strict epsilon). Loads are
    # non-negative, so checking the final sums covers every prefix the
    # descent would have checked.
    capacity = {h.name: h.capacity for h in deployment.hosts}
    for (host, _), load in host_load.items():
        if load >= capacity[host] * (1 - _REL_EPS):
            return None

    if ic < problem.ic_target:
        return None
    return values, ic, cost


def _replay_assignment(
    problem: OptimizationProblem,
    vars_: list[tuple[int, str]],
    values: list[tuple[bool, bool]],
) -> tuple[dict[tuple[str, int], float], float, float]:
    """Cleanly evaluate a full assignment: ``(host_load, ic, cost)``.

    Replays the descent's Delta-hat / FIC / cost recurrences along the
    assignment in variable order, from zeroed accumulators, so the
    result depends only on the assignment. The block engine records
    best solutions through this function and the warm-start evaluator
    installs incumbents through it; the oracle's own accumulators,
    restored on every backtrack, hold the same depth-order sums at each
    leaf. That is what makes a warm-started run's cost bit-identical to
    the cold run's.
    """
    deployment = problem.deployment
    descriptor = deployment.descriptor
    rate_table = descriptor.rate_table
    graph = descriptor.graph
    space = descriptor.configuration_space
    n_configs = len(space)

    # Predecessor structure, rebuilt exactly as the engines' _prepare
    # builds it (same accumulation order over the same edge iteration).
    pe_pos = {pe: i for i, pe in enumerate(graph.pes)}
    pe_preds: dict[str, list[tuple[str, float]]] = {}
    src_sel: dict[tuple[str, int], float] = {}
    src_sum: dict[tuple[str, int], float] = {}
    for pe in graph.pes:
        preds: list[tuple[str, float]] = []
        for edge in graph.pe_input_edges(pe):
            selectivity = descriptor.selectivity(edge.tail, pe)
            if edge.tail in pe_pos:
                preds.append((edge.tail, selectivity))
            else:
                for c in range(n_configs):
                    key = (pe, c)
                    rate = rate_table.rate(edge.tail, c)
                    src_sel[key] = (
                        src_sel.get(key, 0.0) + selectivity * rate
                    )
                    src_sum[key] = src_sum.get(key, 0.0) + rate
        pe_preds[pe] = preds
    prob = [space[c].probability for c in range(n_configs)]
    bic = sum(
        prob[c] * rate_table.total_pe_input_rate(c)
        for c in range(n_configs)
    )

    depth_of = {var: d for d, var in enumerate(vars_)}
    delta_hat = [0.0] * len(vars_)
    host_load: dict[tuple[str, int], float] = {}
    fic = 0.0
    cost = 0.0
    for d, ((c, pe), (a0, a1)) in enumerate(zip(vars_, values)):
        load = rate_table.replica_load(pe, c)
        if a0:
            host = deployment.host_of(ReplicaId(pe, 0))
            host_load[(host, c)] = host_load.get((host, c), 0.0) + load
        if a1:
            host = deployment.host_of(ReplicaId(pe, 1))
            host_load[(host, c)] = host_load.get((host, c), 0.0) + load
        if a0 and a1:
            dh = src_sel.get((pe, c), 0.0)
            plain = src_sum.get((pe, c), 0.0)
            for pred, selectivity in pe_preds[pe]:
                x = delta_hat[depth_of[(c, pred)]]
                dh += selectivity * x
                plain += x
            delta_hat[d] = dh
            fic += prob[c] * plain
            cost += prob[c] * load * 2
        else:
            cost += prob[c] * load

    ic = max(0.0, fic / bic)
    return host_load, ic, cost


def _knapsack_tables(
    gains: list[float], costs: list[float]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per depth, the fractional knapsack over the later variables as
    ``np.interp`` abscissae (cumulative gains) and ordinates (cumulative
    costs), from ``(0, 0)``, best gain per cost first (a free item
    first). Zero-gain items are left out: the abscissae strictly
    increase. Plain Python: a numpy sort would touch code pages no step
    needs."""
    order = sorted(
        (d for d, gain in enumerate(gains) if gain > 0.0),
        key=lambda d: -gains[d] / costs[d] if costs[d] else -math.inf,
    )
    tables = []
    for depth in range(len(gains)):
        items = [d for d in order if d > depth]
        tables.append((
            np.array([0.0, *accumulate(gains[d] for d in items)]),
            np.array([0.0, *accumulate(costs[d] for d in items)]),
        ))
    return tables


@dataclass(frozen=True)
class Seed:
    """The pre-search incumbent (greedy seed and/or warm start).

    ``codes`` is None — and the cost infinite — when no incumbent was
    installed.
    """

    cost: float
    ic: float
    codes: Optional[tuple[int, ...]]


class SearchLayout:
    """Flat per-depth view of one problem, for the block engine.

    Depth ``d`` of the variable order is configuration
    ``config_order[d // n_pes]`` and PE position ``d % n_pes``. Data that
    varies with the configuration (loads, source inflows, bounds, the
    DOM plan) is indexed by depth; structure that does not (predecessor
    lists, the COMPL walk plan, host slots) is indexed by PE position,
    because the engine's per-row state only ever spans the configuration
    being assigned.
    """

    def __init__(
        self, problem: OptimizationProblem, config: FTSearchConfig
    ) -> None:
        deployment = problem.deployment
        if deployment.replication_factor != 2:
            raise OptimizationError(
                "FT-Search only supports two-fold replication (k=2), got"
                f" k={deployment.replication_factor}"
            )
        self.problem = problem
        self.config = config
        descriptor = deployment.descriptor
        graph = descriptor.graph
        space = descriptor.configuration_space
        rate_table = descriptor.rate_table

        pes = graph.pes
        pe_pos = {pe: i for i, pe in enumerate(pes)}
        n_pes = len(pes)
        n_configs = len(space)
        config_order = space.sorted_by_total_rate(
            descending=config.hungry_configs_first
        )
        prob = [space[c].probability for c in range(n_configs)]

        # Variable order: most resource-hungry configuration first, PEs in
        # topological order within each configuration.
        self.vars: list[tuple[int, str]] = [
            (c, pe) for c in config_order for pe in pes
        ]
        self.n_pes = n_pes
        self.n_vars = len(self.vars)
        self.n_hosts = len(deployment.hosts)

        # Predecessor structure split by kind, with selectivities for the
        # Delta-hat recursion and plain sums for the FIC integrand.
        pe_preds: list[tuple[tuple[int, float], ...]] = []
        source_inflow_sel: dict[tuple[str, int], float] = {}
        source_inflow_sum: dict[tuple[str, int], float] = {}
        for pe in pes:
            preds: list[tuple[int, float]] = []
            for edge in graph.pe_input_edges(pe):
                selectivity = descriptor.selectivity(edge.tail, pe)
                if edge.tail in pe_pos:
                    preds.append((pe_pos[edge.tail], selectivity))
                else:  # source predecessor: Delta-hat equals Delta
                    for c in range(n_configs):
                        key = (pe, c)
                        rate = rate_table.rate(edge.tail, c)
                        source_inflow_sel[key] = (
                            source_inflow_sel.get(key, 0.0)
                            + selectivity * rate
                        )
                        source_inflow_sum[key] = (
                            source_inflow_sum.get(key, 0.0) + rate
                        )
            pe_preds.append(tuple(preds))
        #: Per PE position: (predecessor position, selectivity) pairs.
        self.pe_preds = pe_preds

        # BIC per configuration (probability-weighted) and in total.
        bic_c = [
            prob[c] * rate_table.total_pe_input_rate(c)
            for c in range(n_configs)
        ]
        bic = sum(bic_c)
        if bic <= 0:
            raise OptimizationError(
                "BIC is zero: the application processes no tuples, the IC"
                " constraint is undefined"
            )
        self.ic_target = problem.ic_target
        #: The IC goal as a FIC mass, with the search's epsilon applied.
        self.fic_thresh = problem.ic_target * bic - _REL_EPS * bic

        # Per-depth data: load and cost of one active replica, source
        # inflows, which later variables DOM may exclude.
        self.d_load = [rate_table.replica_load(pe, c) for c, pe in self.vars]
        self.d_prob = [prob[c] for c, _ in self.vars]
        #: prob[c] * load — the single-replica (minimum) cost of a variable.
        self.d_prob_load = [
            p * load for p, load in zip(self.d_prob, self.d_load)
        ]
        #: Cost a value adds at a depth, as a ``(2, 1)`` column: "both
        #: active", then one replica.
        self.d_cost_step = list(
            np.array(
                [[2 * step for step in self.d_prob_load], self.d_prob_load]
            ).T[:, :, None]
        )
        self.d_src_sel = [
            source_inflow_sel.get((pe, c), 0.0) for c, pe in self.vars
        ]
        self.d_src_sum = [
            source_inflow_sum.get((pe, c), 0.0) for c, pe in self.vars
        ]

        # DOM plan: for every depth, the later positions of its
        # configuration whose exclusion its assignment can change — the
        # descendants of its PE, minus those fed by a live source (DOM
        # never excludes them). Each entry is (position, height, preds)
        # with preds as (assigned, position): an assigned predecessor is
        # dead when its Delta-hat is zero, an open one when it is
        # excluded.
        descendants: list[set[int]] = [set() for _ in range(n_pes)]
        for succ, preds in enumerate(pe_preds):
            for pred, _ in preds:
                for ancestor in range(pred + 1):
                    if ancestor == pred or pred in descendants[ancestor]:
                        descendants[ancestor].add(succ)
        pe_dom = [
            [
                (succ, tuple((p <= position, p) for p, _ in pe_preds[succ]))
                for succ in sorted(descendants[position])
            ]
            for position in range(n_pes)
        ]
        self.d_dom: list[_DomPlan] = [
            tuple(
                (succ, self.n_vars - (d - d % n_pes + succ), preds)
                for succ, preds in pe_dom[d % n_pes]
                if not self.d_src_sum[d - d % n_pes + succ] > 0.0
            )
            for d in range(self.n_vars)
        ]

        # COST bound: suffix sums of the minimum cost over the variable
        # order, for O(1) lower bounds.
        self.suffix_min_cost = [0.0] * (self.n_vars + 1)
        for d in range(self.n_vars - 1, -1, -1):
            self.suffix_min_cost[d] = (
                self.suffix_min_cost[d + 1] + self.d_prob_load[d]
            )

        # COST bound, IC term: closing an FIC deficit costs second
        # replicas. Each variable is a knapsack item: it costs what
        # "both" adds over one replica and gains at most its FIC
        # integrand with every upstream PE fully replicated (the
        # recurrence of _replay_assignment with all values "both"), so
        # no assignment of it contributes more; one np.interp over the
        # tables is then the fractional knapsack's cost of a deficit.
        # The deficit is measured against the threshold relaxed by one
        # more epsilon of BIC, so float residue in a row's FIC sum can
        # never carry a feasible leaf's deficit past a breakpoint; at
        # IC 0 it is negative and the term is exactly zero.
        self.knapsack_thresh = self.fic_thresh - _REL_EPS * bic
        #: Per depth: the FIC gain bound of the variable's second replica.
        self.d_gain = [0.0] * self.n_vars
        for base in range(0, self.n_vars, n_pes):
            dh_full = [0.0] * n_pes
            for position, preds in enumerate(pe_preds):
                d = base + position
                dh = self.d_src_sel[d]
                plain = self.d_src_sum[d]
                for pred, selectivity in preds:
                    dh += selectivity * dh_full[pred]
                    plain += dh_full[pred]
                dh_full[position] = dh
                self.d_gain[d] = self.d_prob[d] * plain
        #: Per depth: (cumulative gains, cumulative costs) of the open
        #: variables' second replicas, best ratio first, from (0, 0).
        self.d_knapsack = _knapsack_tables(self.d_gain, self.d_prob_load)

        # COMPL bound: BIC of the whole configurations ordered after the
        # one a depth belongs to.
        suffix_bic_by_config = [0.0] * (n_configs + 1)
        for i in range(n_configs - 1, -1, -1):
            suffix_bic_by_config[i] = (
                suffix_bic_by_config[i + 1] + bic_c[config_order[i]]
            )
        self.d_suffix_bic = [
            suffix_bic_by_config[d // n_pes + 1] for d in range(self.n_vars)
        ]

        # Host slots and effective capacities of each PE's two replicas.
        one_minus_eps = 1 - _REL_EPS
        host_index = {h.name: i for i, h in enumerate(deployment.hosts)}
        self.host_caps = [
            h.capacity * one_minus_eps for h in deployment.hosts
        ]
        self.pe_h0 = [
            host_index[deployment.host_of(ReplicaId(pe, 0))] for pe in pes
        ]
        self.pe_h1 = [
            host_index[deployment.host_of(ReplicaId(pe, 1))] for pe in pes
        ]

        # COMPL walk plan: for every PE position, the walk over the later
        # PEs in topological order. Each entry is (position, terms) with
        # terms as (code, ref, coefficient column): code 0 reads the
        # candidate value's Delta-hat, code 1 the walk's own upper bound
        # of its ref-th entry, code 2 the assigned Delta-hat at position
        # ref. A coefficient column is ``[[sel], [1.0]]``: row 0 feeds
        # the selectivity-weighted sum (Delta-hat), row 1 the plain sum
        # (the FIC integrand); it broadcasts over the row axis behind it
        # and the value-variant axis in front.
        pe_columns = [
            [(pred, np.array([[sel], [1.0]])) for pred, sel in preds]
            for preds in pe_preds
        ]
        self.pe_walk: list[_WalkPlan] = []
        for position in range(n_pes):
            entries = []
            for rest_pos in range(position + 1, n_pes):
                terms = []
                for pred_pos, column in pe_columns[rest_pos]:
                    if pred_pos == position:
                        terms.append((0, 0, column))
                    elif pred_pos > position:
                        terms.append((1, pred_pos - position - 1, column))
                    else:
                        terms.append((2, pred_pos, column))
                entries.append((rest_pos, tuple(terms)))
            self.pe_walk.append(tuple(entries))
        #: Where a depth's walk starts: the source inflows of the later
        #: PEs of its configuration as ``(rest, 1, 2, 1)`` columns, to
        #: broadcast over value variant and row.
        src = np.array([self.d_src_sel, self.d_src_sum]).T
        self.d_walk_src = [
            src[d + 1: d - d % n_pes + n_pes, None, :, None]
            for d in range(self.n_vars)
        ]

    # ------------------------------------------------------------------
    # Clean evaluation of full assignments
    # ------------------------------------------------------------------

    def replay(self, codes: tuple[int, ...]) -> tuple[float, float]:
        """``(ic, cost)`` of a full assignment, via the shared clean
        evaluator — a pure function of the assignment."""
        _, ic, cost = _replay_assignment(
            self.problem,
            self.vars,
            [_VALUE_TUPLES[code] for code in codes],
        )
        return ic, cost

    def build_strategy(self, codes: tuple[int, ...]) -> ActivationStrategy:
        activations: dict[tuple[ReplicaId, int], bool] = {}
        for (c, pe), code in zip(self.vars, codes):
            value = _VALUE_TUPLES[code]
            activations[(ReplicaId(pe, 0), c)] = value[0]
            activations[(ReplicaId(pe, 1), c)] = value[1]
        return ActivationStrategy(
            self.problem.deployment,
            activations,
            name=f"L{self.ic_target:g}",
        )

    # ------------------------------------------------------------------
    # Incumbent seeding
    # ------------------------------------------------------------------

    def seed(self) -> Seed:
        """Evaluate the configured greedy and warm-start incumbents.

        The greedy-deactivation strategy (CPU-feasible by construction)
        seeds when it also meets the IC target; the warm start seeds when
        it is feasible for *this* problem and strictly better than the
        greedy seed (the strict-improvement rule the recorder uses).
        Both go through the clean replay, so the installed cost/IC are
        what a search would record for the same assignment. Unusable
        seeds are silently ignored — seeding is a pure accelerator.
        """
        seed = Seed(math.inf, 0.0, None)
        if self.config.seed_incumbent:
            codes = self._greedy_codes()
            if codes is not None:
                ic, cost = self.replay(codes)
                if ic >= self.ic_target:
                    seed = Seed(cost, ic, codes)
        if self.config.warm_start is not None:
            payload = _evaluate_warm_start(
                self.problem, self.config, self.vars
            )
            if payload is not None:
                values, ic, cost = payload
                if seed.codes is None or (
                    cost < seed.cost * (1 - _REL_EPS)
                ):
                    seed = Seed(
                        cost,
                        ic,
                        tuple(_CODE_OF_VALUE[v] for v in values),
                    )
        return seed

    def _greedy_codes(self) -> Optional[tuple[int, ...]]:
        from repro.core.baselines import greedy_deactivation

        try:
            strategy = greedy_deactivation(self.problem.deployment)
        except OptimizationError:
            return None
        return tuple(
            _CODE_OF_VALUE[
                (
                    strategy.is_active(ReplicaId(pe, 0), c),
                    strategy.is_active(ReplicaId(pe, 1), c),
                )
            ]
            for c, pe in self.vars
        )


def ft_search(
    problem: OptimizationProblem,
    time_limit: None = None,
    node_limit: Optional[int] = NODE_LIMIT,
    disabled_rules: frozenset = frozenset(),
    seed_incumbent: bool = False,
    hungry_configs_first: bool = True,
    warm_start: Optional[ActivationStrategy] = None,
    progress: Optional[SearchProgress] = None,
    jobs: Optional[int] = None,
) -> SearchResult:
    """Convenience wrapper: configure and run the block engine.

    The engine runs in this process; its optimal cost and strategy equal
    the reference oracle's. ``jobs`` accepts only ``None`` and ``1``,
    both meaning exactly that: a caller that wants parallelism fans
    whole searches out over its fabric (``repro.experiments.parallel``).
    ``time_limit`` accepts only ``None``: FT-Search reads no clock, its
    one budget is ``node_limit``.
    """
    if time_limit is not None:
        raise OptimizationError(
            f"FT-Search budgets are in nodes (node_limit), got"
            f" time_limit={time_limit!r}"
        )
    if jobs not in (None, 1):
        raise OptimizationError(
            f"ft_search runs in the calling process (jobs None or 1), got"
            f" jobs={jobs!r}; fan whole searches out over the caller's"
            " fabric for parallelism"
        )
    config = FTSearchConfig(
        node_limit=node_limit,
        disabled_rules=frozenset(disabled_rules),
        seed_incumbent=seed_incumbent,
        hungry_configs_first=hungry_configs_first,
        warm_start=warm_start,
    )
    from repro.core.optimizer.vector import VectorFTSearch

    return VectorFTSearch(problem, config, progress).run()
