"""FT-Search progress telemetry: periodic mid-search snapshots.

The optimizer originally reported only end-of-run totals — nodes
expanded, prunes by rule, final cost. For the long searches the paper
runs (10-minute budgets, Sec. 5.1) that is a black box: you cannot see
whether the incumbent stopped improving two seconds in or whether a
prune rule went quiet. :class:`SearchProgress` fixes that: attach one
to either search engine and every N expanded nodes it records a
:class:`ProgressSnapshot` — nodes visited, prunes by rule, incumbent
cost, and a depth histogram.

Snapshot points are keyed on the engines' deterministic node counters
(never the wall clock), so an engine's snapshot series for an instance
repeats byte for byte, from run to run and across machines. (The block
engine and ``ReferenceFTSearch`` visit nodes in different orders, so
their series differ from each other.)

This module deliberately imports nothing from the rest of ``repro`` so
the optimizer core can depend on it without layering cycles; prune
counts are keyed by plain rule-name strings (``PruneRule.value``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["ProgressSnapshot", "SearchProgress"]


@dataclass(frozen=True)
class ProgressSnapshot:
    """State of a branch-and-bound search at one node-count checkpoint."""

    nodes: int
    incumbent_cost: Optional[float]
    prunes: dict[str, int]
    depth_counts: dict[int, int]

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dict (depth keys as strings, sorted)."""
        return {
            "nodes": self.nodes,
            "incumbent_cost": self.incumbent_cost,
            "prunes": dict(sorted(self.prunes.items())),
            "depth_counts": {
                str(depth): count
                for depth, count in sorted(self.depth_counts.items())
            },
        }


class SearchProgress:
    """Collects periodic snapshots from a running FT-Search engine.

    ``every`` is the snapshot period in expanded nodes. The engine calls
    :meth:`on_node` once per node expansion; when it returns True the
    engine follows up with :meth:`snapshot` (a two-step protocol so the
    engine only assembles the prune-count dict at snapshot points, never
    per node). :meth:`finish` captures the final state at the end of the
    search even when the node count is not a multiple of the period.
    """

    __slots__ = ("every", "snapshots", "_depth_counts", "_last_nodes")

    def __init__(self, every: int = 1024) -> None:
        if every < 1:
            raise ValueError(f"snapshot period must be >= 1, got {every}")
        self.every = every
        self.snapshots: list[ProgressSnapshot] = []
        self._depth_counts: dict[int, int] = {}
        self._last_nodes = -1

    def on_node(self, nodes: int, depth: int) -> bool:
        """Count one node expansion; True when a snapshot is due."""
        counts = self._depth_counts
        counts[depth] = counts.get(depth, 0) + 1
        return not nodes % self.every

    def on_nodes(self, nodes: int, count: int, depth: int) -> bool:
        """Count ``count`` node expansions at one depth in a single call.

        The batched entry point for the vectorized engine, which expands
        a whole block of same-depth nodes per step. ``nodes`` is the
        engine's total node counter *after* the batch. True when the
        batch crossed at least one snapshot boundary — the engine should
        follow up with :meth:`snapshot` exactly as for :meth:`on_node`.
        """
        counts = self._depth_counts
        counts[depth] = counts.get(depth, 0) + count
        return nodes // self.every != (nodes - count) // self.every

    def snapshot(
        self,
        nodes: int,
        incumbent_cost: Optional[float],
        prunes: dict[str, int],
    ) -> None:
        """Capture the search state at a node-count checkpoint."""
        self._last_nodes = nodes
        self.snapshots.append(
            ProgressSnapshot(
                nodes=nodes,
                incumbent_cost=incumbent_cost,
                prunes=dict(prunes),
                depth_counts=dict(self._depth_counts),
            )
        )

    def finish(
        self,
        nodes: int,
        incumbent_cost: Optional[float],
        prunes: dict[str, int],
    ) -> None:
        """Record the final state (skipped if a snapshot just landed)."""
        if nodes != self._last_nodes:
            self.snapshot(nodes, incumbent_cost, prunes)

    def to_list(self) -> list[dict[str, Any]]:
        """All snapshots as JSON-friendly dicts, in capture order."""
        return [snap.to_dict() for snap in self.snapshots]
