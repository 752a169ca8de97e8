"""Vectorized FT-Search: block-at-a-time branch-and-bound over numpy.

The production engine. The paper's search (and the retained oracle,
:mod:`repro.core.optimizer.reference`) expands one node per step; this
engine expands *blocks* of nodes: a block is a set of same-depth partial
assignments stored as row-parallel numpy arrays over the flat layout of
:class:`~repro.core.optimizer.ftsearch.SearchLayout`, and one ``_advance``
call applies the Δ(x,c) rate recurrences (Eq. 3-6), the Eq. 11 per-host
capacity checks, and all four pruning rules to every row of the block at
once. Exploration stays depth-first *in blocks*: the search reaches
leaves (and therefore a COST incumbent) after ~n_vars advances.

The stack is what stays resident between advances, so it holds an open
child as its *parent's* rows, never its own: ``_advance`` returns a
pending record (parent block, child order, value-group bounds, the
"both" value's Δ-hat and FIC contribution per parent row, the single-
replica path bytes, the step's scalars) and the stack holds
``BLOCK_ROWS``-row ranges of it. Popping a range builds just those rows
(``_materialise``, which charges their DOM prunes) and advances them;
leaf children are built whole and folded. Rows are visited in the order
a stack of built chunks would visit them, so node and advance counts
equal that stack's.

A row is kept small for the same reason: every recurrence and every
rule only reads the configuration being assigned, so a row carries
Δ-hat, DOM exclusions and host loads for that configuration alone (they
restart at zero when the next configuration begins), plus one byte per
variable of path.

Inside one advance the twins are stacked, because a step costs what its
numpy calls cost more than what they compute. A node's three values
share one ``(3, rows)`` mask (row = value code: both, replica 0,
replica 1); a rule ANDs its keeps into it and is charged the drop in
``count_nonzero``, and the mask's flat ``nonzero`` (modulo the row
count) is the child order. What
differs between "both" and the singles but not between the singles —
the IC upper bound, the cost bound — is a ``(2, rows)`` pair. The COMPL
walk runs its four recurrences (both/single by selectivity-weighted/
plain) in one ``(2, 2, rows)`` accumulator per later PE, each term one
multiply by a ``[[sel], [1.0]]`` column from the layout and one in-place
add. Stacking never reorders a row's arithmetic: ``acc += c * x`` is
``acc = acc + c * x`` and ``1.0 * x`` is ``x``.

Equality contract — this engine pins *optimal cost and strategy* against
the oracle, not node counts. Two deliberate departures make that work:

* **Banded pruning.** The scalar DFS prunes with ``bound >= best*(1-eps)``
  because its value ordering guarantees the incumbent it keeps is the
  first-found among equal-cost optima. A block engine sees equal-cost
  leaves in block order, so it prunes against the slightly looser
  ``best*(1+band)`` and keeps every leaf within the band as a candidate.
* **Rank fold.** Every row carries a per-depth *rank*: the position its
  value would have taken in the scalar DFS's dynamic value order
  (host-load comparison plus DOM exclusion). Folding the surviving
  candidates in rank-lexicographic order with the scalar strict-
  improvement rule (< best*(1-eps)) reproduces the scalar tie-break, and
  the winning assignment is re-evaluated through ``_replay_assignment``
  so the reported cost/IC are bit-identical to the oracle's.

The per-row float recurrences use a fixed elementwise operation order
(no variable-order reductions), so every row's state is independent of
which rows share its block — the property that lets ``block_rows``
change node counts but never a row's values, and lets a pending child
be built in any split of ranges.

COST is stronger than the paper's rule: besides one replica per open
variable, it charges the cheapest second replicas whose FIC gain bounds
(every upstream PE fully replicated) cover the row's deficit against the
IC target, a fractional knapsack priced by one ``np.interp``
(``_cost_bound``). Every real contribution is at most its bound, so no
leaf within the band is ever cut and what is returned is unchanged; at
IC 0 the term is zero and the bound is the paper's bit for bit.

The engine runs in the calling process. Parallelism lives one level up,
in the experiment fabric, which fans whole searches out across tenants,
instances and campaigns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.optimizer.ftsearch import (
    _COMPL_I,
    _COST_I,
    _CPU_I,
    _DOM_I,
    _REL_EPS,
    _RULES,
    FTSearchConfig,
    SearchLayout,
    Seed,
)
from repro.core.optimizer.outcomes import SearchOutcome, SearchResult
from repro.core.optimizer.problem import OptimizationProblem
from repro.core.optimizer.stats import PruneRule, SearchStats

if TYPE_CHECKING:  # import only for annotations: keeps the core light
    from repro.obs.progress import SearchProgress

__all__ = [
    "BLOCK_ROWS",
    "Candidate",
    "RawSearch",
    "VectorFTSearch",
]

# Rows advanced per step. The stack holds an open child as its parent's
# rows, not its own, so what stays resident per depth is one step's
# input: the width is set by the fixed numpy overhead of a step, which
# wider steps spread over more nodes (docs/performance.md has the
# measured trade-off against peak RSS). A constant, never a function of
# the host: where a node-limited search stops — hence its incumbent —
# depends on it.
BLOCK_ROWS = 1024

# Relative slack for the candidate band (see module docstring). Wider
# than _REL_EPS so float residue in the blockwise accumulators can never
# prune a leaf the scalar DFS's strict rule would have kept.
_BAND_EPS = 4e-9

# One path byte per assigned variable: ``rank << 2 | value code``.
# Siblings have distinct ranks, so path bytes compare lexicographically
# exactly like the per-depth rank vector.
_CODE_MASK = 3

# Path byte of a single-replica value, indexed by
# ``4 * (code - 1) + 2 * excluded + less_loaded0`` (``less_loaded0``:
# replica 0's host carries no more than replica 1's). The value on the
# less-loaded host ranks first among the singles, and both move up one
# rank when DOM has taken "both" out of the domain.
_RANK_BYTES = np.array(
    [2 << 2 | 1, 1 << 2 | 1, 1 << 2 | 1, 0 << 2 | 1]
    + [1 << 2 | 2, 2 << 2 | 2, 0 << 2 | 2, 1 << 2 | 2],
    np.uint8,
)

# A near-optimal leaf: (raw cost, path bytes). Sorting candidates by
# path restores the scalar DFS visit order.
Candidate = tuple[float, bytes]


@dataclass
class _Block:
    """Row-parallel state of same-depth search nodes: one step's input."""

    depth: int
    path: np.ndarray  # (R, n_vars) uint8, rank << 2 | value code
    # State of the configuration being assigned, by host / PE position:
    host_load: np.ndarray  # (R, n_hosts) float64
    delta_hat: np.ndarray  # (R, n_pes) float64
    excluded: np.ndarray  # (R, n_pes) bool, DOM exclusions
    # A finished configuration broke Eq. 11 (only with the CPU rule off).
    overloaded: np.ndarray  # (R,) bool
    fic: np.ndarray  # (R,) float64, assigned FIC mass
    cost: np.ndarray  # (R,) float64, assigned cost

    @classmethod
    def root(cls, layout: SearchLayout) -> "_Block":
        """The starting block: one empty row, the whole tree."""
        return cls(
            depth=0,
            path=np.zeros((1, layout.n_vars), np.uint8),
            host_load=np.zeros((1, layout.n_hosts)),
            delta_hat=np.zeros((1, layout.n_pes)),
            excluded=np.zeros((1, layout.n_pes), bool),
            overloaded=np.zeros(1, bool),
            fic=np.zeros(1),
            cost=np.zeros(1),
        )

    def rows(self) -> int:
        return len(self.fic)


@dataclass
class _Pending:
    """A child block one advance decided but did not build: its parent
    rows and, per child row, what the child takes from them."""

    block: _Block  # the parent rows
    parent: np.ndarray  # (C,) intp, child row -> parent row
    # Child rows [0, n0) take "both", [n0, n01) replica 0, the rest 1.
    n0: int
    n01: int
    dh_both: np.ndarray  # (R,) float64, Δ-hat of "both" per parent row
    contrib_both: np.ndarray  # (R,) float64, its FIC contribution
    rank: np.ndarray  # (C - n0,) uint8, path bytes of the single rows
    # The step's scalars: position, its two hosts, load and cost step.
    pos: int
    h0: int
    h1: int
    load: float
    prob_load: float

    def depth(self) -> int:
        return self.block.depth + 1

    def rows(self) -> int:
        return len(self.parent)


# One stack entry: rows [lo, hi) of a pending child.
_Range = tuple[_Pending, int, int]


@dataclass
class RawSearch:
    """What one block-search pass produces, before the candidate fold.

    ``best_raw`` is the tightest raw-accumulator cost seen (the
    in-search prune bound), not the clean replayed optimum.
    """

    candidates: list[Candidate]
    best_raw: float
    nodes: int
    values_tried: int
    solutions_found: int
    prune_counts: list[int]
    prune_heights: list[int]
    expired: bool
    first_raw_cost: Optional[float]
    first_raw_nodes: Optional[int]
    #: When ``best_raw`` last tightened, in nodes expanded (None: no
    #: leaf ever beat the seed incumbent).
    best_raw_nodes: Optional[int]


class VectorFTSearch:
    """One vectorized FT-Search run over a fixed problem.

    ``block_rows`` caps the rows advanced per step; optimal cost and
    strategy never depend on it, a node-limited search's incumbent does.
    """

    def __init__(
        self,
        problem: OptimizationProblem,
        config: Optional[FTSearchConfig] = None,
        progress: Optional["SearchProgress"] = None,
        *,
        block_rows: int = BLOCK_ROWS,
    ) -> None:
        if block_rows < 1:
            raise ValueError(
                f"block_rows must be >= 1, got {block_rows}"
            )
        self._config = config or FTSearchConfig()
        self._layout = SearchLayout(problem, self._config)
        self._progress = progress
        self._block_rows = block_rows
        self._n_vars = self._layout.n_vars
        self._cap_row = np.asarray(self._layout.host_caps)

        disabled = self._config.disabled_rules
        self._cpu_on = PruneRule.CPU not in disabled
        self._compl_on = PruneRule.COMPLETENESS not in disabled
        self._cost_on = PruneRule.COST not in disabled
        self._dom_on = PruneRule.DOMAIN not in disabled

        self._seed = self._layout.seed()
        self._reset_counters()

    @property
    def seed(self) -> Seed:
        return self._seed

    def _reset_counters(self) -> None:
        self._nodes = 0
        self._values_tried = 0
        self._solutions_found = 0
        self._prune_counts = [0, 0, 0, 0]
        self._prune_heights = [0, 0, 0, 0]
        self._best_raw = self._seed.cost
        #: The least-rank path of each distinct raw cost in the band.
        self._candidates: dict[float, bytes] = {}
        self._first_raw_cost: Optional[float] = None
        self._first_raw_nodes: Optional[int] = None
        self._best_raw_nodes: Optional[int] = None

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def search(self) -> RawSearch:
        """Run the block search; returns raw candidates and counters."""
        self._reset_counters()
        node_limit = self._config.node_limit

        expired = False
        stack: list[_Range] = []
        block = _Block.root(self._layout)
        while True:
            pending = self._advance(block)
            if pending is not None:
                if pending.depth() == self._n_vars:
                    self._fold_leaves(
                        self._materialise(pending, 0, pending.rows())
                    )
                else:
                    self._push(stack, pending)
            if not stack:
                break
            if node_limit is not None and self._nodes >= node_limit:
                expired = True
                break
            pending, lo, hi = stack.pop()
            if node_limit is not None and self._nodes + hi - lo > node_limit:
                # Advance only what the budget has left; the rest of the
                # range stays open, so the search stops expired.
                cut = lo + node_limit - self._nodes
                stack.append((pending, cut, hi))
                hi = cut
            block = self._materialise(pending, lo, hi)
        return RawSearch(
            candidates=list(self._candidates.items()),
            best_raw=self._best_raw,
            nodes=self._nodes,
            values_tried=self._values_tried,
            solutions_found=self._solutions_found,
            prune_counts=list(self._prune_counts),
            prune_heights=list(self._prune_heights),
            expired=expired,
            first_raw_cost=self._first_raw_cost,
            first_raw_nodes=self._first_raw_nodes,
            best_raw_nodes=self._best_raw_nodes,
        )

    def run(self) -> SearchResult:
        """Execute the search and classify the outcome."""
        return self._result(self.search())

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def _fold_candidates(
        self, candidates: Sequence[Candidate]
    ) -> tuple[Optional[tuple[int, ...]], float, float]:
        """Fold candidates in rank order; returns (codes, cost, ic).

        Replays the scalar DFS's recorder over the candidate leaves in
        DFS (rank-lexicographic) order, starting from the seed incumbent:
        a candidate is accepted only on strict improvement, and every
        accepted candidate is re-evaluated through the layout's clean
        replay so the final cost/IC are pure functions of the assignment.
        """
        layout = self._layout
        seed = self._seed
        best_codes = seed.codes
        best_cost = seed.cost
        best_ic = seed.ic
        for raw_cost, path in sorted(candidates, key=lambda cand: cand[1]):
            if best_codes is not None and not (
                raw_cost < best_cost * (1 - _REL_EPS)
            ):
                continue
            best_codes = tuple(byte & _CODE_MASK for byte in path)
            best_ic, best_cost = layout.replay(best_codes)
        return best_codes, best_cost, best_ic

    def _result(self, raw: RawSearch) -> SearchResult:
        """Fold a raw search into a :class:`SearchResult`."""
        codes, best_cost, best_ic = self._fold_candidates(raw.candidates)
        if self._progress is not None:
            self._progress.finish(
                raw.nodes,
                None if math.isinf(best_cost) else best_cost,
                self._prunes_by_name(raw.prune_counts),
            )
        stats = SearchStats(
            nodes_expanded=raw.nodes,
            values_tried=raw.values_tried,
            solutions_found=raw.solutions_found,
            depth=self._n_vars,
        )
        for i, rule in enumerate(_RULES):
            stats.prune_counts[rule] = raw.prune_counts[i]
            stats.prune_height_sums[rule] = raw.prune_heights[i]

        strategy = (
            None
            if codes is None
            else self._layout.build_strategy(codes)
        )
        if strategy is not None:
            outcome = (
                SearchOutcome.FEASIBLE
                if raw.expired
                else SearchOutcome.OPTIMAL
            )
        else:
            outcome = (
                SearchOutcome.TIMEOUT
                if raw.expired
                else SearchOutcome.INFEASIBLE
            )
        # The seed incumbent is there from node zero (the oracle's
        # convention); a leaf that tightened it did so later.
        best_nodes = raw.best_raw_nodes or 0
        return SearchResult(
            outcome=outcome,
            strategy=strategy,
            best_cost=best_cost if strategy is not None else math.inf,
            best_ic=best_ic,
            first_solution_cost=raw.first_raw_cost,
            first_solution_nodes=raw.first_raw_nodes,
            best_solution_nodes=None if strategy is None else best_nodes,
            stats=stats,
        )

    def _prunes_by_name(self, counts: Sequence[int]) -> dict[str, int]:
        return {rule.value: counts[i] for i, rule in enumerate(_RULES)}

    # ------------------------------------------------------------------
    # Block machinery
    # ------------------------------------------------------------------

    def _push(self, stack: list[_Range], pending: _Pending) -> None:
        """Push a pending child as bounded row ranges (later ranges
        first, so the stack pops them in frontier order)."""
        rows = pending.rows()
        chunks = -(-rows // self._block_rows)
        for i in reversed(range(chunks)):
            stack.append(
                (pending, i * rows // chunks, (i + 1) * rows // chunks)
            )

    def _advance(self, block: _Block) -> Optional[_Pending]:
        """Expand every row of ``block`` one depth; None when all die."""
        layout = self._layout
        depth = block.depth
        rows = block.rows()
        self._nodes += rows
        progress = self._progress
        if progress is not None and progress.on_nodes(
            self._nodes, rows, depth
        ):
            progress.snapshot(
                self._nodes,
                None if math.isinf(self._best_raw) else self._best_raw,
                self._prunes_by_name(self._prune_counts),
            )

        height = self._n_vars - depth
        pos = depth % layout.n_pes
        h0 = layout.pe_h0[pos]
        h1 = layout.pe_h1[pos]
        load = layout.d_load[depth]
        prob_load = layout.d_prob_load[depth]
        host_load = block.host_load
        delta_hat = block.delta_hat
        excluded = block.excluded
        excluded_d = excluded[:, pos]
        load0 = host_load[:, h0]
        load1 = host_load[:, h1]

        # Δ-hat of the "both active" value (Eq. 3-6 recurrence) and its
        # FIC contribution, for all rows at once. The predecessor terms
        # accumulate in the same fixed order as the oracle's loop.
        dh_both = np.full(rows, layout.d_src_sel[depth])
        plain = np.full(rows, layout.d_src_sum[depth])
        for pred_pos, selectivity in layout.pe_preds[pos]:
            x = delta_hat[:, pred_pos]
            dh_both = dh_both + selectivity * x
            plain = plain + x
        contrib_both = layout.d_prob[depth] * plain

        # One mask row per value code; every rule ANDs its keeps in and
        # counts what it removed from the rows still standing.
        valid = np.ones((3, rows), bool)
        np.logical_not(excluded_d, out=valid[0])
        alive = int(np.count_nonzero(valid))
        self._values_tried += alive

        # CPU rule (Eq. 11, strict inequality on both hosts).
        if self._cpu_on:
            valid[:2] &= load0 + load < layout.host_caps[h0]
            valid[::2] &= load1 + load < layout.host_caps[h1]
            alive = self._pruned(_CPU_I, height, valid, alive)

        # COMPL rule: IC upper bound via the rest-of-configuration walk.
        if self._compl_on:
            rest = self._walk(depth, dh_both, delta_hat, excluded)
            rest += layout.d_suffix_bic[depth]
            fic_upper = np.empty((2, rows))
            np.add(block.fic, contrib_both, out=fic_upper[0])
            fic_upper[1] = block.fic
            fic_upper += rest
            keeps = fic_upper >= layout.fic_thresh
            valid[0] &= keeps[0]
            valid[1:] &= keeps[1]
            alive = self._pruned(_COMPL_I, height, valid, alive)

        # COST rule: assigned cost + cheapest completion + the cheapest
        # second replicas that can close the FIC deficit, against the
        # banded incumbent (with none yet, nothing is pruned).
        if self._cost_on:
            keeps = (
                self._cost_bound(block, contrib_both)
                < self._best_raw * (1 + _BAND_EPS)
            )
            valid[0] &= keeps[0]
            valid[1:] &= keeps[1]
            alive = self._pruned(_COST_I, height, valid, alive)

        if alive == 0:
            return None

        # Children in value-code order: the "both" rows, then the two
        # single-replica groups (row-major nonzero is that order). The
        # flat index modulo ``rows`` is the parent row; unlike the column
        # of a 2-D ``nonzero`` it is contiguous and holds nothing else.
        parent = np.flatnonzero(valid)
        parent %= rows
        n0 = int(np.count_nonzero(valid[0]))
        n01 = n0 + int(np.count_nonzero(valid[1]))
        # Path byte ``rank << 2 | code``: the rank is the position the
        # value takes in the scalar DFS's dynamic order — "both" first
        # (rank 0, code 0: the zero byte a child row already has) unless
        # DOM-excluded, then the single replica on the less-loaded host.
        key = (load0 <= load1) + 2 * excluded_d
        key = key.take(parent[n0:])
        key[n01 - n0:] += 4
        return _Pending(
            block, parent, n0, n01, dh_both, contrib_both,
            _RANK_BYTES.take(key), pos, h0, h1, load, prob_load,
        )

    def _cost_bound(
        self, block: _Block, contrib_both: np.ndarray
    ) -> np.ndarray:
        """COST's lower bound on every completion, ``(2, rows)``: "both",
        then one replica.

        Assigned cost, this step's value and one replica per open
        variable (the paper's bound), plus -- once there is an incumbent
        to prune against -- the fractional-knapsack cost of the second
        replicas that can close the row's FIC deficit (the layout's
        ``d_knapsack``; a deficit <= 0 adds exactly 0).
        """
        layout = self._layout
        depth = block.depth
        bound = (
            block.cost
            + layout.d_cost_step[depth]
            + layout.suffix_min_cost[depth + 1]
        )
        if self._best_raw < math.inf and layout.knapsack_thresh > 0.0:
            deficit = np.empty_like(bound)
            np.add(block.fic, contrib_both, out=deficit[0])
            deficit[1] = block.fic
            np.subtract(layout.knapsack_thresh, deficit, out=deficit)
            bound += np.interp(deficit, *layout.d_knapsack[depth])
        return bound

    def _materialise(self, pending: _Pending, lo: int, hi: int) -> _Block:
        """Build rows ``[lo, hi)`` of a pending child.

        A child row reads its parent row and the step's scalars only, so
        the rows built in any split equal the whole child's bit for bit.
        DOM prunes are charged here, for the rows built.
        """
        parent = pending.parent[lo:hi]
        block = pending.block
        depth = block.depth
        child = _Block(
            depth=depth + 1,
            path=block.path.take(parent, axis=0),
            host_load=block.host_load.take(parent, axis=0),
            delta_hat=block.delta_hat.take(parent, axis=0),
            excluded=block.excluded.take(parent, axis=0),
            overloaded=block.overloaded.take(parent),
            fic=block.fic.take(parent),
            cost=block.cost.take(parent),
        )

        # The three value groups, clipped to the range.
        rows = hi - lo
        n0 = min(max(pending.n0 - lo, 0), rows)
        n01 = min(max(pending.n01 - lo, 0), rows)
        if n0 < rows:
            skip = lo - pending.n0
            child.path[n0:, depth] = pending.rank[skip + n0:skip + rows]
        g0 = slice(0, n0)
        g1 = slice(n0, n01)
        g2 = slice(n01, rows)
        pos, h0, h1 = pending.pos, pending.h0, pending.h1
        load, prob_load = pending.load, pending.prob_load
        child.host_load[g0, h0] += load
        child.host_load[g0, h1] += load
        child.host_load[g1, h0] += load
        child.host_load[g2, h1] += load
        child.delta_hat[g0, pos] = pending.dh_both.take(parent[g0])
        child.fic[g0] += pending.contrib_both.take(parent[g0])
        child.cost[g0] += 2 * prob_load
        child.cost[g1] += prob_load
        child.cost[g2] += prob_load

        if pos + 1 == self._layout.n_pes:
            # Configuration complete: with the CPU rule off its Eq. 11
            # check is due now, and the next one starts from zero.
            if not self._cpu_on:
                child.overloaded |= (
                    child.host_load >= self._cap_row
                ).any(axis=1)
            child.host_load = np.zeros_like(child.host_load)
            child.delta_hat = np.zeros_like(child.delta_hat)
            child.excluded = np.zeros_like(child.excluded)
        elif self._dom_on:
            self._propagate_domain(child)
        return child

    def _pruned(
        self, rule: int, height: int, valid: np.ndarray, alive: int
    ) -> int:
        """Charge ``rule`` with the values it just removed from
        ``valid`` (``alive`` stood before it); returns how many stand."""
        left = int(np.count_nonzero(valid))
        self._count_prunes(rule, height, alive - left)
        return left

    def _count_prunes(self, rule: int, height: int, count: int) -> None:
        if count:
            self._prune_counts[rule] += count
            self._prune_heights[rule] += height * count

    def _walk(
        self,
        depth: int,
        dh_both: np.ndarray,
        delta_hat: np.ndarray,
        excluded: np.ndarray,
    ) -> np.ndarray:
        """The COMPL rest-of-configuration walk, row-parallel.

        One pass per remaining PE of the depth's configuration in
        topological order, assuming full replication except where DOM
        excluded it and carrying the per-position upper bounds. All
        four copies of the recurrence advance in one ``(2, 2, rows)``
        accumulator — value variant ("both", whose candidate Δ-hat is
        ``dh_both``, or single-replica, whose is zero) by kind
        (selectivity-weighted, plain). Returns the ``(2, rows)`` walk
        totals, one row per variant.
        """
        rows = len(dh_both)
        total = np.zeros((2, rows))
        layout = self._layout
        plan = layout.pe_walk[depth % layout.n_pes]
        if not plan:
            return total
        accs = np.empty((len(plan), 2, 2, rows))
        accs[...] = layout.d_walk_src[depth]
        for acc, (position, terms) in zip(accs, plan):
            for code, ref, column in terms:
                if code == 0:
                    # The candidate variable itself: the single-replica
                    # variant adds nothing.
                    acc[0] += column * dh_both
                elif code == 1:
                    # An earlier entry's masked weighted sum is its
                    # upper bound, one row per variant.
                    acc += column * accs[ref, :, :1]
                else:
                    acc += column * delta_hat[:, ref]
            np.copyto(acc, 0.0, where=excluded[:, position])
        for weighted in layout.d_prob[depth] * accs[:, :, 1]:
            total += weighted
        return total

    def _propagate_domain(self, child: _Block) -> None:
        """DOM: recompute exclusions over the rest of the configuration.

        Forward domain propagation (Sec. 4.5): a variable is dead when
        every predecessor is dead (assigned with Δ-hat zero, or
        unassigned and excluded); full replication of a dead variable
        cannot improve IC ("no replication forwarding"), so "both
        active" leaves its domain. Only the descendants of the variable
        just assigned are looked at (the layout's DOM plan): any other
        position reads the same predecessor states as one step earlier,
        when it was already brought to the fixpoint. Processing them in
        increasing order reaches the fixpoint of the recursive
        formulation.
        """
        plan = self._layout.d_dom[child.depth - 1]
        if not plan:
            return
        excluded = child.excluded
        zero = child.delta_hat == 0.0
        for succ_pos, height, preds in plan:
            dead: Optional[np.ndarray] = None
            for assigned, pred_pos in preds:
                mask = zero[:, pred_pos] if assigned else excluded[:, pred_pos]
                dead = mask if dead is None else dead & mask
            # dead and not yet excluded
            fresh = dead > excluded[:, succ_pos]
            count = int(np.count_nonzero(fresh))
            if count:
                self._count_prunes(_DOM_I, height, count)
                excluded[:, succ_pos] |= fresh

    def _fold_leaves(self, block: _Block) -> None:
        """Collect near-optimal leaves and tighten the raw incumbent."""
        # Constraints normally enforced en route move to the leaves when
        # their rule is disabled — same contract as the oracle's recorder.
        feasible = ~block.overloaded
        if not self._compl_on:
            feasible &= block.fic >= self._layout.fic_thresh
        cost = np.where(feasible, block.cost, math.inf)
        self._solutions_found += int(feasible.sum())

        band = self._best_raw * (1 + _BAND_EPS)
        # Finite filter: infeasible leaves carry cost inf, and with no
        # incumbent yet (band inf) "inf <= inf" would smuggle them in.
        keep = np.nonzero(np.isfinite(cost) & (cost <= band))[0]
        if len(keep) == 0:
            return
        best_row = int(keep[np.argmin(cost[keep])])
        candidates = self._candidates
        if cost[best_row] < self._best_raw:
            self._best_raw = float(cost[best_row])
            self._best_raw_nodes = self._nodes
            band = self._best_raw * (1 + _BAND_EPS)
            candidates = {c: p for c, p in candidates.items() if c <= band}
            self._candidates = candidates
        if self._first_raw_cost is None:
            self._first_raw_cost = float(block.cost[keep[0]])
            self._first_raw_nodes = self._nodes
        # Of equal raw costs the rank fold can accept only the first in
        # rank order, so one path per cost suffices: the least one, as
        # leaves arrive in block order, not rank order.
        for row in keep:
            raw = float(cost[row])
            if raw <= band:
                path = block.path[row].tobytes()
                held = candidates.get(raw)
                if held is None or path < held:
                    candidates[raw] = path
