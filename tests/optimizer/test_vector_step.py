"""The block step against its frozen parent.

``VectorFTSearch._advance`` / ``_walk`` / ``_propagate_domain`` were
rewritten to make each numpy call once over stacked arrays instead of
three or four times over twins, and the child block is no longer built
by the step: ``_advance`` returns a pending child and ``_materialise``
builds any row range of it when the stack pops that range. Both changes
must be invisible: every child row bit for bit, every counter. The
judge is the code they replaced, kept *verbatim* below as
:class:`_ParentStep` (it survives only here; the root replay of the
since-deleted multi-process driver is cut out of it), driven block by
block beside the engine over generated instances and every rule
subset: each range the engine builds is compared with the parent's
child rows it kept.

Since then COST also prices the IC deficit (the fractional-knapsack
term of ``_cost_bound``), so the engine keeps a subset of the parent's
rows. At IC 0 the subset is all of them and every counter is equal.
With a target every kept row is the parent's bit for bit, and every
row the parent kept but the engine dropped is charged to COST, with a
bound that reaches the band by a knapsack computed here
(:func:`knapsack_cost`); the counters agree once those rows are
accounted for.

A second judge holds the chunking itself: building a pending child in
one range or in arbitrary splits gives the same rows and the same DOM
prune totals (:func:`split_walk`).

A judge needs mutations that trip it: :class:`_InitialCountMutant`
counts a rule's prunes against the step's initial mask (double-counting
rows an earlier rule removed), :class:`_FactoredMutant` factors the
configuration probability out of the walk's sum (``p * (a + b)`` for
``p * a + p * b`` — the tempting reassociation the fixed operation
order forbids), :class:`_LateResetMutant` skips the configuration-
boundary reset for ranges that do not start at row 0,
:class:`_ZeroGainMutant` lists second replicas that gain nothing in the
knapsack tables. All must fail.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import (
    FTSearchConfig,
    OptimizationProblem,
    PruneRule,
    VectorFTSearch,
)
from repro.core.optimizer.ftsearch import (
    _COMPL_I,
    _COST_I,
    _CPU_I,
    _DOM_I,
)
from repro.core.optimizer.vector import _BAND_EPS, RawSearch, _Block
from tests.optimizer.test_ftsearch_equivalence import (
    _problem,
    degenerate_problem,
    problems,
)

RULE_SUBSETS = [
    frozenset(subset)
    for size in range(len(PruneRule) + 1)
    for subset in itertools.combinations(PruneRule, size)
]
FIELDS = (
    "path", "host_load", "delta_hat", "excluded", "overloaded", "fic", "cost"
)


class _ParentLayout:
    """The engine's layout plus the plans the parent step read and the
    stacked layout no longer carries, built as the parent built them."""

    def __init__(self, layout) -> None:
        self._layout = layout
        self.d_dom_exempt = [
            self.d_src_sum[d] > 0.0 or not layout.pe_preds[d % layout.n_pes]
            for d in range(layout.n_vars)
        ]
        self.pe_rest = []
        for position in range(layout.n_pes):
            entries = []
            for rest_pos in range(position + 1, layout.n_pes):
                plan = []
                for pred_pos, selectivity in layout.pe_preds[rest_pos]:
                    if pred_pos == position:
                        plan.append((0, 0, selectivity))
                    elif pred_pos > position:
                        plan.append((1, pred_pos, selectivity))
                    else:
                        plan.append((2, pred_pos, selectivity))
                entries.append((rest_pos, tuple(plan)))
            self.pe_rest.append(tuple(entries))

    def __getattr__(self, name):
        return getattr(self._layout, name)


def _rows(block: _Block, lo: int, hi: int) -> _Block:
    """Rows ``[lo, hi)`` of a block, as views."""
    return dataclasses.replace(
        block, **{name: getattr(block, name)[lo:hi] for name in FIELDS}
    )


class _ParentCode(VectorFTSearch):
    """The block step of commit ``cb53fc6``: four methods, verbatim
    but for the root replay (``forced``, ``_last_parent``); and the
    stack of commit ``7961dfc``, whole child blocks cut into chunks
    (``search`` and ``_push``, verbatim but for ``_Block.slice``,
    reading the engine's candidate store, now one path per cost, and
    the solution fields, now node counts; the wall-clock deadline went
    with the engine's)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._layout = _ParentLayout(self._layout)

    def search(self) -> RawSearch:
        """Run the block search; returns raw candidates and counters."""
        self._reset_counters()
        node_limit = self._config.node_limit

        expired = False
        stack = [_Block.root(self._layout)]
        while stack:
            if node_limit is not None and self._nodes >= node_limit:
                expired = True
                break
            block = stack.pop()
            child = self._advance(block)
            if child is None:
                continue
            if child.depth == self._n_vars:
                self._fold_leaves(child)
                continue
            self._push(stack, child)
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

    def _push(self, stack: list[_Block], block: _Block) -> None:
        """Push a block, split into bounded chunks (later chunks first,
        so the stack pops them in frontier order)."""
        rows = block.rows()
        if rows <= self._block_rows:
            stack.append(block)
            return
        chunks = -(-rows // self._block_rows)
        bounds = [
            (i * rows // chunks, (i + 1) * rows // chunks)
            for i in range(chunks)
        ]
        for lo, hi in reversed(bounds):
            stack.append(_rows(block, lo, hi))

    def _advance(self, block: _Block) -> Optional[_Block]:
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
        min_cost_rest = layout.suffix_min_cost[depth + 1]
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

        valid0 = ~excluded_d
        valid1 = np.ones(rows, bool)
        valid2 = np.ones(rows, bool)
        self._values_tried += int(valid0.sum()) + 2 * rows

        # CPU rule (Eq. 11, strict inequality on both hosts).
        if self._cpu_on:
            fits0 = load0 + load < layout.host_caps[h0]
            fits1 = load1 + load < layout.host_caps[h1]
            self._count_prunes(
                _CPU_I,
                height,
                int((valid0 & ~(fits0 & fits1)).sum())
                + int((~fits0).sum())
                + int((~fits1).sum()),
            )
            valid0 &= fits0 & fits1
            valid1 &= fits0
            valid2 &= fits1

        # COMPL rule: IC upper bound via the rest-of-configuration walk.
        if self._compl_on:
            total0, total_single = self._walk(
                depth, dh_both, delta_hat, excluded
            )
            suffix = layout.d_suffix_bic[depth]
            fic_upper0 = block.fic + contrib_both + (total0 + suffix)
            fic_upper_single = block.fic + (total_single + suffix)
            keeps0 = fic_upper0 >= layout.fic_thresh
            keeps_single = fic_upper_single >= layout.fic_thresh
            self._count_prunes(
                _COMPL_I,
                height,
                int((valid0 & ~keeps0).sum())
                + int((valid1 & ~keeps_single).sum())
                + int((valid2 & ~keeps_single).sum()),
            )
            valid0 &= keeps0
            valid1 &= keeps_single
            valid2 &= keeps_single

        # COST rule: assigned cost + cheapest completion, against the
        # banded incumbent.
        if self._cost_on:
            threshold = self._best_raw * (1 + _BAND_EPS)
            bound0 = block.cost + 2 * prob_load + min_cost_rest
            bound_single = block.cost + prob_load + min_cost_rest
            keeps0 = bound0 < threshold
            keeps_single = bound_single < threshold
            self._count_prunes(
                _COST_I,
                height,
                int((valid0 & ~keeps0).sum())
                + int((valid1 & ~keeps_single).sum())
                + int((valid2 & ~keeps_single).sum()),
            )
            valid0 &= keeps0
            valid1 &= keeps_single
            valid2 &= keeps_single

        rows0 = np.nonzero(valid0)[0]
        rows1 = np.nonzero(valid1)[0]
        rows2 = np.nonzero(valid2)[0]
        n0, n1, n2 = len(rows0), len(rows1), len(rows2)
        total = n0 + n1 + n2
        if total == 0:
            return None

        parent = np.concatenate([rows0, rows1, rows2])
        child = _Block(
            depth=depth + 1,
            path=block.path[parent],
            host_load=host_load[parent],
            delta_hat=delta_hat[parent],
            excluded=excluded[parent],
            overloaded=block.overloaded[parent],
            fic=block.fic[parent],
            cost=block.cost[parent],
        )
        g0 = slice(0, n0)
        g1 = slice(n0, n0 + n1)
        g2 = slice(n0 + n1, total)

        # Path byte ``rank << 2 | code``: the rank is the position the
        # value takes in the scalar DFS's dynamic order — "both" first
        # (rank 0, code 0: the zero byte already there) unless
        # DOM-excluded, then the single replica on the less-loaded host.
        less_loaded0 = load0 <= load1
        byte1 = np.where(
            excluded_d,
            np.where(less_loaded0, 0 << 2 | 1, 1 << 2 | 1),
            np.where(less_loaded0, 1 << 2 | 1, 2 << 2 | 1),
        )
        byte2 = np.where(
            excluded_d,
            np.where(less_loaded0, 1 << 2 | 2, 0 << 2 | 2),
            np.where(less_loaded0, 2 << 2 | 2, 1 << 2 | 2),
        )
        child.path[g1, depth] = byte1[rows1]
        child.path[g2, depth] = byte2[rows2]

        child.host_load[g0, h0] += load
        child.host_load[g0, h1] += load
        child.host_load[g1, h0] += load
        child.host_load[g2, h1] += load
        child.delta_hat[g0, pos] = dh_both[rows0]
        child.fic[g0] += contrib_both[rows0]
        child.cost[g0] += 2 * prob_load
        child.cost[g1] += prob_load
        child.cost[g2] += prob_load

        if pos + 1 == layout.n_pes:
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
            self._propagate_domain(child, pos)
        return child

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
    ) -> tuple[np.ndarray, np.ndarray]:
        """The COMPL rest-of-configuration walk, row-parallel.

        One pass per remaining PE of the depth's configuration in
        topological order, assuming full replication except where DOM
        excluded it and carrying the per-position upper bounds; returns
        the walk totals for the "both" value and for the single-replica
        values (whose candidate Δ-hat is zero).
        """
        layout = self._layout
        pos = depth % layout.n_pes
        base = depth - pos
        rest = layout.pe_rest[pos]
        rows = len(dh_both)
        total_both = np.zeros(rows)
        total_single = np.zeros(rows)
        if not rest:
            return total_both, total_single
        prob_c = layout.d_prob[depth]
        upper_both: dict[int, np.ndarray] = {}
        upper_single: dict[int, np.ndarray] = {}
        for position, preds in rest:
            init_sel = layout.d_src_sel[base + position]
            init_sum = layout.d_src_sum[base + position]
            sel_both = np.full(rows, init_sel)
            sum_both = np.full(rows, init_sum)
            sel_single = np.full(rows, init_sel)
            sum_single = np.full(rows, init_sum)
            for code, ref, selectivity in preds:
                if code == 0:
                    # The candidate variable itself: Δ-hat is dh_both
                    # for the "both" value, zero for the singles.
                    sel_both = sel_both + selectivity * dh_both
                    sum_both = sum_both + dh_both
                elif code == 1:
                    sel_both = (
                        sel_both + selectivity * upper_both[ref]
                    )
                    sum_both = sum_both + upper_both[ref]
                    sel_single = (
                        sel_single + selectivity * upper_single[ref]
                    )
                    sum_single = sum_single + upper_single[ref]
                else:
                    x = delta_hat[:, ref]
                    sel_both = sel_both + selectivity * x
                    sum_both = sum_both + x
                    sel_single = sel_single + selectivity * x
                    sum_single = sum_single + x
            dead = excluded[:, position]
            upper_both[position] = np.where(dead, 0.0, sel_both)
            upper_single[position] = np.where(dead, 0.0, sel_single)
            total_both += np.where(dead, 0.0, prob_c * sum_both)
            total_single += np.where(dead, 0.0, prob_c * sum_single)
        return total_both, total_single

    def _propagate_domain(self, child: _Block, pos: int) -> None:
        """DOM: recompute exclusions over the rest of the configuration.

        Forward domain propagation (Sec. 4.5): a variable is dead when
        every predecessor is dead (assigned with Δ-hat zero, or
        unassigned and excluded); full replication of a dead variable
        cannot improve IC ("no replication forwarding"), so "both
        active" leaves its domain. Processing the positions after
        ``pos`` in increasing order reaches the fixpoint of the recursive
        formulation. Variables with live source inflow or no in-graph
        predecessors are never excluded.
        """
        layout = self._layout
        excluded = child.excluded
        delta_hat = child.delta_hat
        base = child.depth - 1 - pos
        for succ_pos in range(pos + 1, layout.n_pes):
            succ_depth = base + succ_pos
            if layout.d_dom_exempt[succ_depth]:
                continue
            dead = np.ones(child.rows(), bool)
            for pred_pos, _ in layout.pe_preds[succ_pos]:
                if pred_pos <= pos:
                    dead &= delta_hat[:, pred_pos] == 0.0
                else:
                    dead &= excluded[:, pred_pos]
            fresh = dead & ~excluded[:, succ_pos]
            count = int(fresh.sum())
            if count:
                self._count_prunes(
                    _DOM_I, self._n_vars - succ_depth, count
                )
                excluded[:, succ_pos] |= fresh


class _ParentStep(_ParentCode):
    """The oracle: the parent's step, its last walk totals on record."""

    last_walk: Optional[np.ndarray] = None

    def _walk(self, *args):
        totals = super()._walk(*args)
        self.last_walk = np.stack(totals)
        return totals


# ----------------------------------------------------------------------
# The engine under test, with the walk's output on record
# ----------------------------------------------------------------------


class _Recording(VectorFTSearch):
    """The production step; remembers what its last walk returned (the
    totals only reach a child through comparisons, so a last-ulp drift
    in them would otherwise show only where it flips a prune)."""

    last_walk: Optional[np.ndarray] = None

    def _walk(self, *args):
        total = super()._walk(*args)
        self.last_walk = total.copy()
        return total


class _InitialCountMutant(_Recording):
    """Counts every rule's prunes against the mask the step started
    with, not the one the previous rule left."""

    def _advance(self, block):
        self._initial: Optional[int] = None
        return super()._advance(block)

    def _pruned(self, rule, height, valid, alive):
        if self._initial is None:
            self._initial = alive
        left = int(np.count_nonzero(valid))
        self._count_prunes(rule, height, self._initial - left)
        return left


class _FactoredMutant(_Recording):
    """``prob * (a + b)`` for ``prob * a + prob * b``: the walk sums the
    masked plain sums first and weights the total once."""

    def _walk(self, depth, *args):
        d_prob = self._layout.d_prob
        prob = d_prob[depth]
        d_prob[depth] = 1.0  # 1.0 * x is x: the walk returns the bare sum
        try:
            total = super()._walk(depth, *args)
        finally:
            d_prob[depth] = prob
        total *= prob
        self.last_walk = total.copy()
        return total


class _ZeroGainMutant(_Recording):
    """Keeps the zero-gain items in the knapsack tables: a variable whose
    second replica can add no FIC still gets a breakpoint."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        layout = self._layout
        gains, costs = np.array(layout.d_gain), np.array(layout.d_prob_load)
        with np.errstate(divide="ignore", invalid="ignore"):
            order = np.argsort(-(gains / costs), kind="stable")
        layout.d_knapsack = [
            (
                np.concatenate(([0.0], np.cumsum(gains[order[order > d]]))),
                np.concatenate(([0.0], np.cumsum(costs[order[order > d]]))),
            )
            for d in range(layout.n_vars)
        ]


class _NoBoundary:
    """The engine's layout, except that its configurations never end."""

    n_pes = math.inf

    def __init__(self, layout) -> None:
        self._layout = layout

    def __getattr__(self, name):
        return getattr(self._layout, name)


class _LateResetMutant(VectorFTSearch):
    """Skips the configuration-boundary reset when a range does not
    start at row 0: its rows carry the last configuration's loads,
    Δ-hat and exclusions into the next."""

    def _materialise(self, pending, lo, hi):
        if lo == 0:
            return super()._materialise(pending, lo, hi)
        layout = self._layout
        self._layout = _NoBoundary(layout)
        try:
            return super()._materialise(pending, lo, hi)
        finally:
            self._layout = layout


def _same(ours: np.ndarray, theirs: np.ndarray) -> bool:
    """Bit equality — stricter than ``np.array_equal``: dtype, shape and
    the sign of a zero count."""
    return (
        ours.dtype == theirs.dtype
        and ours.shape == theirs.shape
        and ours.tobytes() == theirs.tobytes()
    )


def assert_same_rows(child, expected, lo, hi) -> None:
    """``child`` is rows ``[lo, hi)`` of ``expected``, bit for bit."""
    assert child.depth == expected.depth
    for name in FIELDS:
        theirs = getattr(expected, name)[lo:hi]
        assert _same(getattr(child, name), theirs), name


def assert_same_counters(engine, oracle, owed=(0, 0, 0, 0)) -> None:
    """All counters equal, but for the rows the engine dropped: ``owed``
    is their COST prunes (count, heights) the engine charged on top and
    the DOM prunes (count, heights) the parent charged them."""
    cost_count, cost_heights, dom_count, dom_heights = owed
    theirs_counts = list(oracle._prune_counts)
    theirs_heights = list(oracle._prune_heights)
    theirs_counts[_COST_I] += cost_count
    theirs_heights[_COST_I] += cost_heights
    theirs_counts[_DOM_I] -= dom_count
    theirs_heights[_DOM_I] -= dom_heights
    assert engine._nodes == oracle._nodes
    assert engine._values_tried == oracle._values_tried
    assert engine._prune_counts == theirs_counts
    assert engine._prune_heights == theirs_heights
    for counter in engine._prune_counts + engine._prune_heights:
        assert type(counter) is int  # a numpy integer would not serialise


def full_gains(layout) -> list[float]:
    """Each variable's FIC gain bound, by the Δ-hat recurrence with every
    value "both" -- computed here, not read from the layout."""
    gains: list[float] = []
    for base in range(0, layout.n_vars, layout.n_pes):
        dh: list[float] = []
        for position, preds in enumerate(layout.pe_preds):
            weighted = layout.d_src_sel[base + position]
            plain = layout.d_src_sum[base + position]
            for pred, selectivity in preds:
                weighted += selectivity * dh[pred]
                plain += dh[pred]
            dh.append(weighted)
            gains.append(layout.d_prob[base + position] * plain)
    return gains


def knapsack_cost(layout, gains, depth: int, deficit: float) -> float:
    """The fractional knapsack over the variables after ``depth``, item by
    item: the cheapest second replicas whose gain bounds cover
    ``deficit`` (all of them when they cannot)."""
    items = sorted(
        (
            (gains[d], layout.d_prob_load[d])
            for d in range(depth + 1, layout.n_vars)
            if gains[d] > 0.0
        ),
        key=lambda item: -item[0] / item[1] if item[1] else -math.inf,
    )
    cost = 0.0
    for gain, price in items:
        if deficit <= 0.0:
            break
        cost += price * min(deficit, gain) / gain
        deficit -= gain
    return cost


def assert_knapsack_tables(layout) -> None:
    """Every depth's table holds exactly the later variables of positive
    gain bound, as strictly increasing abscissae from ``(0, 0)``."""
    gains = full_gains(layout)
    for depth, (xs, ys) in enumerate(layout.d_knapsack):
        assert xs[0] == ys[0] == 0.0
        assert (np.diff(xs) > 0).all(), f"abscissae of depth {depth}"
        assert (np.diff(ys) >= 0).all()
        assert len(xs) == 1 + sum(g > 0.0 for g in gains[depth + 1:])


def _child_keys(block: _Block, child: _Block) -> np.ndarray:
    """Per child row, ``group * rows + parent row``: where its value sits
    in the step's flat ``(3, rows)`` mask."""
    depth = block.depth
    parent_of = {row.tobytes(): r for r, row in enumerate(block.path)}
    paths = child.path.copy()
    codes = paths[:, depth] & 3
    paths[:, depth] = 0
    parents = [parent_of[row.tobytes()] for row in paths]
    return codes.astype(np.intp) * block.rows() + np.asarray(parents, np.intp)


def _dom_charge(engine, block: _Block, expected: _Block, rows) -> list[int]:
    """``[count, height sum]`` of the DOM prunes the parent step charged
    to child ``rows``: the exclusions they gained over their parent row."""
    n_pes = engine._layout.n_pes
    pos = block.depth % n_pes
    if not engine._dom_on or pos + 1 == n_pes or len(rows) == 0:
        return [0, 0]
    parent = _child_keys(block, _rows_at(expected, rows)) % block.rows()
    fresh = expected.excluded[rows] & ~block.excluded[parent]
    count = int(np.count_nonzero(fresh))
    heights = engine._n_vars - (block.depth - pos + np.nonzero(fresh)[1])
    return [count, int(heights.sum())]


def _rows_at(block: _Block, rows) -> _Block:
    return dataclasses.replace(
        block, **{name: getattr(block, name)[rows] for name in FIELDS}
    )


def lockstep(
    problem: OptimizationProblem,
    config: FTSearchConfig,
    engine_class: type = _Recording,
    block_rows: int = 16,
    max_steps: int = 80,
) -> tuple[int, int]:
    """Run the engine's depth-first block loop and, at every step, hand
    the parent step a copy of the same block. The engine keeps a subset
    of the parent's child rows, in the parent's order: every range it
    builds of its pending child (its own chunk bounds; a leaf child
    whole) equals the rows it kept, bit for bit. A row the parent kept
    and the engine dropped is a COST prune: the paper's bound kept it
    and the knapsack term (``knapsack_cost``, computed here) lifts it to
    the band. Walk totals agree; so do all counters, once each dropped
    row is charged to COST and its DOM prunes are taken off the
    parent's. Returns ``(steps taken, rows dropped)``."""
    engine = engine_class(problem, config, block_rows=block_rows)
    oracle = _ParentStep(problem, config, block_rows=block_rows)
    layout = engine._layout
    assert_knapsack_tables(layout)
    gains = full_gains(layout)
    stack = [_Block.root(layout)]
    steps = dropped = 0
    owed = [0, 0, 0, 0]  # COST count / heights over, DOM count / heights under
    while stack and steps < max_steps:
        block = stack.pop()
        twin = copy.deepcopy(block)
        band = engine._best_raw * (1 + _BAND_EPS)
        oracle._best_raw = engine._best_raw
        engine.last_walk = oracle.last_walk = None
        pending = engine._advance(block)
        expected = oracle._advance(twin)
        steps += 1
        if expected is None:
            assert pending is None
            keys = np.zeros(0, np.intp)
        else:
            keys = _child_keys(block, expected)
        ranges: list = []
        kept = np.zeros(0, np.intp)
        if pending is not None:
            group = np.repeat(
                np.arange(3), [
                    pending.n0, pending.n01 - pending.n0,
                    pending.rows() - pending.n01,
                ],
            )
            kept = np.searchsorted(keys, group * block.rows() + pending.parent)
            assert (keys[kept] == group * block.rows() + pending.parent).all()
            if pending.depth() == engine._n_vars:
                ranges.append((pending, 0, pending.rows()))
            else:
                engine._push(ranges, pending)
        children = []
        for _, lo, hi in ranges:  # stack order: the last range first
            child = engine._materialise(pending, lo, hi)
            assert_same_rows(child, _rows_at(expected, kept[lo:hi]), 0, None)
            children.append(child)
        assert sum(child.rows() for child in children) == len(kept)

        lost = np.setdiff1d(np.arange(len(keys)), kept)
        if len(lost):
            assert engine._cost_on
            suffix = layout.suffix_min_cost[block.depth + 1]
            for row in lost:
                paper = expected.cost[row] + suffix
                deficit = layout.knapsack_thresh - expected.fic[row]
                lifted = paper + knapsack_cost(
                    layout, gains, block.depth, deficit
                )
                assert paper < band
                assert lifted >= band * (1 - 1e-12), "dropped below the band"
            height = engine._n_vars - block.depth
            dom = _dom_charge(engine, block, expected, lost)
            owed = [
                owed[0] + len(lost), owed[1] + height * len(lost),
                owed[2] + dom[0], owed[3] + dom[1],
            ]
            dropped += len(lost)
        assert_same_counters(engine, oracle, owed)
        assert (engine.last_walk is None) == (oracle.last_walk is None)
        if engine.last_walk is not None:
            assert _same(engine.last_walk, oracle.last_walk)
        if children and children[0].depth == engine._n_vars:
            engine._fold_leaves(children[0])
        else:
            stack.extend(children)
    return steps, dropped


def split_walk(
    problem: OptimizationProblem,
    config: FTSearchConfig,
    cuts,
    engine_class: type = VectorFTSearch,
    max_steps: int = 40,
) -> int:
    """Run the engine's own search loop; build every pending child once
    whole and once in the pieces ``cuts(rows)`` (sorted inner bounds)
    asks for: the pieces concatenate to the whole child bit for bit and
    are charged the same DOM prunes. Returns the children checked."""
    engine = engine_class(problem, config, block_rows=16)

    def dom_charges(ranges, pending) -> tuple[list, list[int]]:
        count = engine._prune_counts[_DOM_I]
        height = engine._prune_heights[_DOM_I]
        built = [engine._materialise(pending, lo, hi) for lo, hi in ranges]
        return built, [
            engine._prune_counts[_DOM_I] - count,
            engine._prune_heights[_DOM_I] - height,
        ]

    stack: list = []
    block = _Block.root(engine._layout)
    checked = 0
    for _ in range(max_steps):
        pending = engine._advance(block)
        if pending is not None:
            rows = pending.rows()
            (whole,), whole_dom = dom_charges([(0, rows)], pending)
            bounds = [0, *cuts(rows), rows]
            pieces, pieces_dom = dom_charges(
                list(zip(bounds, bounds[1:])), pending
            )
            assert pieces_dom == whole_dom
            for name in FIELDS:
                joined = np.concatenate([getattr(p, name) for p in pieces])
                assert _same(joined, getattr(whole, name)), name
            checked += 1
            if whole.depth == engine._n_vars:
                engine._fold_leaves(whole)
            else:
                engine._push(stack, pending)
        if not stack:
            break
        block = engine._materialise(*stack.pop())
    return checked


def _config(disabled, seeded: bool = False):
    return FTSearchConfig(
        node_limit=None,
        disabled_rules=frozenset(disabled),
        seed_incumbent=seeded,
    )


# ----------------------------------------------------------------------
# Generated instances
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    problem=problems(),
    seeded=st.booleans(),
    block_rows=st.sampled_from((1, 3, 16, 256)),
)
def test_step_equals_parent_on_generated_instances(
    problem, seeded, block_rows
):
    """The instances ``test_equivalent_on_generated_instances`` draws,
    each under all 16 rule subsets."""
    for disabled in RULE_SUBSETS:
        config = _config(disabled, seeded)
        lockstep(problem, config, block_rows=block_rows, max_steps=40)


@pytest.mark.parametrize(
    "disabled",
    RULE_SUBSETS,
    ids=lambda subset: "-".join(sorted(r.value for r in subset)) or "none",
)
def test_step_equals_parent_under_every_rule_subset(disabled):
    """All 16 rule subsets, on one toy and one mid corpus instance
    (seeded, so COST prunes from the first block)."""
    dropped = 0
    for seed, size in ((5, "toy"), (6, "mid")):
        problem = _problem(seed, size)
        config = _config(disabled, seeded=True)
        steps, lost = lockstep(problem, config)
        assert steps > 10
        dropped += lost
    # The knapsack term is COST's: it drops rows exactly when COST is on.
    assert (dropped > 0) == (PruneRule.COST not in disabled)


def _at_ic(problem: OptimizationProblem, ic_target: float):
    return OptimizationProblem(problem.deployment, ic_target=ic_target)


@pytest.mark.parametrize("seed", (0, 2, 5, 6))
def test_at_ic_zero_every_row_and_counter_is_the_parents(seed):
    """With no target there is no deficit: the bound is the paper's, bit
    for bit, and the engine keeps every row the parent keeps."""
    problem = _at_ic(_problem(seed, "mid"), 0.0)
    steps, dropped = lockstep(problem, _config((), seeded=True))
    assert steps > 10 and dropped == 0


def test_a_whole_search_returns_what_the_parent_step_returns():
    """End to end, no lockstep: at IC 0 the raw search -- candidates,
    bound, every counter -- of the engine and of the parent step are
    equal. With a target the engine returns the same candidates, bound
    and first leaf (the knapsack term waits for an incumbent) from
    fewer nodes."""
    saved = 0
    for seed in (1, 5, 12):
        problem = _problem(seed, "mid")
        config = FTSearchConfig(node_limit=None)
        zero = _at_ic(problem, 0.0)
        assert VectorFTSearch(zero, config).search() == _ParentStep(
            zero, config
        ).search()
        ours = VectorFTSearch(problem, config).search()
        theirs = _ParentStep(problem, config).search()
        assert sorted(ours.candidates) == sorted(theirs.candidates)
        for name in (
            "best_raw", "expired", "first_raw_cost", "first_raw_nodes"
        ):
            assert getattr(ours, name) == getattr(theirs, name), name
        assert ours.nodes <= theirs.nodes
        saved += theirs.nodes - ours.nodes
    assert saved > 0


@settings(max_examples=20, deadline=None)
@given(
    problem=problems(),
    data=st.data(),
)
def test_a_pending_child_builds_the_same_in_any_split(problem, data):
    """One range or arbitrary splits: the same rows, the same DOM
    prunes, so where the stack cuts a child cannot matter."""

    def cuts(rows: int) -> list[int]:
        if rows < 2:
            return []
        inner = st.sets(st.integers(1, rows - 1), max_size=4)
        return sorted(data.draw(inner, label=f"cuts of {rows} rows"))

    split_walk(problem, _config(()), cuts)


# ----------------------------------------------------------------------
# The judge can fail
# ----------------------------------------------------------------------

MUTATION_CORPUS = [(seed, "mid") for seed in (0, 2, 5, 6, 8, 9)]


def _trips(engine_class: type) -> int:
    tripped = 0
    for seed, size in MUTATION_CORPUS:
        try:
            lockstep(
                _problem(seed, size),
                _config((), seeded=True),
                engine_class,
            )
        except AssertionError:
            tripped += 1
    return tripped


def test_counting_against_the_initial_mask_is_caught():
    """Rows the CPU rule removed are charged to COMPL and COST again."""
    assert _trips(_InitialCountMutant) == len(MUTATION_CORPUS)


def test_factoring_the_walk_sum_is_caught():
    """A last-ulp drift in the walk totals: no child field carries it,
    the recorded totals do."""
    assert _trips(_FactoredMutant) >= len(MUTATION_CORPUS) // 2


def test_the_unmutated_engine_passes_the_mutation_corpus():
    assert _trips(_Recording) == 0


DEGENERATE = [
    {"zero_probability": True},
    {"zero_rate_pe": True},
    {"zero_probability": True, "zero_rate_pe": True},
]


@pytest.mark.parametrize("engine_class", (_Recording, _ZeroGainMutant))
def test_zero_gain_items_are_caught(engine_class):
    """A second replica that can add no FIC also costs nothing here (its
    PE's input, hence its load, is zero), so listing it moves no bound;
    it breaks the tables' strictly increasing abscissae, which
    ``np.interp``'s answer at a breakpoint relies on. The engine passes
    on every degenerate instance, the mutant fails on each."""
    tripped = 0
    for kinds in DEGENERATE:
        try:
            lockstep(
                degenerate_problem(**kinds),
                _config((), seeded=True),
                engine_class,
            )
        except AssertionError:
            tripped += 1
    assert tripped == (0 if engine_class is _Recording else len(DEGENERATE))


def _halves(rows: int) -> list[int]:
    return [rows // 2] if rows > 1 else []


def test_a_late_reset_is_caught():
    """Rows built after the first range of a child that closes a
    configuration keep the closed configuration's state."""
    tripped = 0
    for seed, size in MUTATION_CORPUS:
        problem, config = _problem(seed, size), _config((), True)
        assert split_walk(problem, config, _halves) > 10
        try:
            split_walk(problem, config, _halves, _LateResetMutant)
        except AssertionError:
            tripped += 1
    assert tripped == len(MUTATION_CORPUS)
