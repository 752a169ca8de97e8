"""FT-Search progress telemetry: the two-step snapshot protocol."""

from __future__ import annotations

import pytest

from repro.core.optimizer import OptimizationProblem, ft_search
from repro.obs import SearchProgress
from repro.workloads.generator import (
    ClusterParams,
    GeneratorParams,
    generate_application,
)


class TestOnNode:
    def test_snapshot_due_every_n_nodes(self):
        progress = SearchProgress(every=3)
        due = [n for n in range(1, 10) if progress.on_node(n, depth=0)]
        assert due == [3, 6, 9]

    def test_depth_histogram_accumulates(self):
        progress = SearchProgress(every=100)
        for depth in (0, 1, 1, 2):
            progress.on_node(1, depth)
        progress.snapshot(4, None, {})
        assert progress.snapshots[-1].depth_counts == {0: 1, 1: 2, 2: 1}

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            SearchProgress(every=0)


class TestSnapshots:
    def test_snapshot_copies_mutable_state(self):
        progress = SearchProgress(every=1)
        prunes = {"CPU": 1}
        progress.on_node(1, 0)
        progress.snapshot(1, 10.0, prunes)
        prunes["CPU"] = 99
        progress.on_node(2, 1)
        progress.snapshot(2, 9.0, prunes)
        assert progress.snapshots[0].prunes == {"CPU": 1}
        assert progress.snapshots[0].depth_counts == {0: 1}
        assert progress.snapshots[1].depth_counts == {0: 1, 1: 1}

    def test_finish_records_final_state(self):
        progress = SearchProgress(every=4)
        for n in range(1, 7):
            progress.on_node(n, 0)
        progress.snapshot(4, 5.0, {"CPU": 2})
        progress.finish(6, 4.0, {"CPU": 3})
        assert [s.nodes for s in progress.snapshots] == [4, 6]

    def test_finish_skipped_when_snapshot_just_landed(self):
        progress = SearchProgress(every=2)
        progress.on_node(1, 0)
        progress.on_node(2, 0)
        progress.snapshot(2, 5.0, {})
        progress.finish(2, 5.0, {})
        assert len(progress.snapshots) == 1

    def test_to_list_is_json_friendly(self):
        progress = SearchProgress(every=1)
        progress.on_node(1, 3)
        progress.snapshot(1, None, {"COST": 0, "CPU": 1})
        (entry,) = progress.to_list()
        assert entry == {
            "nodes": 1,
            "incumbent_cost": None,
            "prunes": {"COST": 0, "CPU": 1},
            "depth_counts": {"3": 1},
        }


class TestOnNodes:
    def test_batched_boundary_detection(self):
        progress = SearchProgress(every=4)
        # 3 nodes: no boundary yet; +3 more crosses 4.
        assert progress.on_nodes(3, 3, depth=0) is False
        assert progress.on_nodes(6, 3, depth=1) is True
        # One batch spanning several boundaries still reports once.
        assert progress.on_nodes(20, 14, depth=2) is True
        assert progress._depth_counts == {0: 3, 1: 3, 2: 14}

    def test_batched_and_single_counters_agree(self):
        single = SearchProgress(every=5)
        batched = SearchProgress(every=5)
        due_single = [single.on_node(n, 0) for n in range(1, 13)]
        due_batched = [
            batched.on_nodes(4, 4, 0),
            batched.on_nodes(8, 4, 0),
            batched.on_nodes(12, 4, 0),
        ]
        assert sum(due_single) == sum(due_batched) == 2
        assert single._depth_counts == batched._depth_counts


class TestRealSearch:
    def test_identical_searches_yield_identical_series(self):
        """Snapshots are keyed on the deterministic node counter, never
        on wall-clock: two in-process runs of one exhaustible search
        must repeat the series entry for entry (docs/observability.md)."""
        app = generate_application(
            2014,
            params=GeneratorParams(n_pes=6, tuple_budget=2000.0),
            cluster=ClusterParams(n_hosts=3, cores_per_host=4),
        )
        problem = OptimizationProblem(app.deployment, ic_target=0.6)
        series = []
        for _ in range(2):
            progress = SearchProgress(every=50)
            result = ft_search(
                problem, node_limit=None, progress=progress, jobs=1
            )
            series.append(progress.to_list())
        assert series[0] == series[1]
        assert len(series[0]) > 2
        assert series[0][-1]["nodes"] == result.stats.nodes_expanded
