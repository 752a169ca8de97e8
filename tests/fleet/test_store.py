"""Tests for the persistent strategy store (repro.fleet.store)."""

from __future__ import annotations

import json

import pytest

from repro.core.optimizer import (
    OptimizationProblem,
    SearchOutcome,
    ft_search,
)
from repro.fleet.store import (
    StoreError,
    StrategyStore,
    record_from_result,
    result_from_record,
    strategy_key,
)


@pytest.fixture
def solved(pipeline_deployment):
    result = ft_search(
        OptimizationProblem(pipeline_deployment, ic_target=0.5),
        node_limit=None,
        seed_incumbent=True,
    )
    assert result.outcome is SearchOutcome.OPTIMAL
    return pipeline_deployment, result


class TestStrategyKey:
    def test_deterministic(self, pipeline_deployment):
        descriptor = pipeline_deployment.descriptor
        hosts = pipeline_deployment.hosts
        a = strategy_key(descriptor, hosts, 2, 0.5)
        b = strategy_key(descriptor, hosts, 2, 0.5)
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_sensitive_to_every_input(
        self, pipeline_deployment, diamond_descriptor
    ):
        descriptor = pipeline_deployment.descriptor
        hosts = pipeline_deployment.hosts
        base = strategy_key(descriptor, hosts, 2, 0.5)
        assert strategy_key(diamond_descriptor, hosts, 2, 0.5) != base
        assert strategy_key(descriptor, hosts[:1], 1, 0.5) != base
        assert strategy_key(descriptor, hosts, 2, 0.6) != base
        assert (
            strategy_key(descriptor, hosts, 2, 0.5, signature="other")
            != base
        )


class TestRecords:
    def test_round_trip_preserves_result(self, solved):
        deployment, result = solved
        record = record_from_result(result)
        rebuilt = result_from_record(record, deployment)
        assert rebuilt.outcome is result.outcome
        assert rebuilt.best_cost == result.best_cost
        assert rebuilt.best_ic == result.best_ic
        assert rebuilt.stats.nodes_expanded == result.stats.nodes_expanded
        assert rebuilt.strategy == result.strategy

    def test_record_is_json_and_wall_clock_free(self, solved):
        _, result = solved
        record = record_from_result(result)
        text = json.dumps(record, sort_keys=True)
        assert json.loads(text) == record
        assert set(record) == {
            "outcome", "best_cost", "best_ic", "nodes", "strategy",
        }

    def test_infeasible_record_round_trips(self, tight_pipeline_deployment):
        result = ft_search(
            OptimizationProblem(tight_pipeline_deployment, ic_target=1.0),
            node_limit=None,
        )
        assert result.outcome is SearchOutcome.INFEASIBLE
        record = record_from_result(result)
        assert record["strategy"] is None
        rebuilt = result_from_record(record, tight_pipeline_deployment)
        assert rebuilt.strategy is None
        assert rebuilt.outcome is SearchOutcome.INFEASIBLE

    def test_malformed_record_rejected(self, pipeline_deployment):
        with pytest.raises(StoreError, match="missing field"):
            result_from_record({"outcome": "BST"}, pipeline_deployment)


class TestStore:
    def test_memory_hit_and_counters(self, solved):
        _, result = solved
        store = StrategyStore()
        record = record_from_result(result)
        assert store.get("k") is None
        store.put("k", record)
        assert store.get("k") == record
        assert (store.hits, store.misses) == (1, 1)
        assert len(store) == 1
        assert "k" in store

    def test_persistence_round_trip(self, solved, tmp_path):
        _, result = solved
        record = record_from_result(result)
        StrategyStore(tmp_path / "store").put("k", record)
        # A fresh store over the same directory finds the record.
        reopened = StrategyStore(tmp_path / "store")
        assert reopened.get("k") == record
        assert reopened.hits == 1
        # No leftover temp files from the atomic write.
        leftovers = list((tmp_path / "store").glob("*.tmp"))
        assert leftovers == []

    def test_corrupt_disk_record_raises(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "bad.json").write_text("{not json")
        with pytest.raises(StoreError, match="corrupt"):
            StrategyStore(store_dir).get("bad")

    @pytest.mark.parametrize(
        "text, complaint",
        [("[]", "not a JSON object"), ('{"outcome": "BST"}', "missing field")],
    )
    def test_misshapen_disk_record_names_its_file(
        self, tmp_path, text, complaint
    ):
        """JSON that is not a record is refused where it is read: the
        error names the file, and the lookup is neither cached nor
        counted as a hit."""
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "bad.json").write_text(text)
        store = StrategyStore(store_dir)
        for _ in range(2):  # a cached first read would turn into a hit
            with pytest.raises(StoreError, match=complaint) as caught:
                store.get("bad")
            assert "bad.json" in str(caught.value)
        assert (store.hits, store.misses, len(store)) == (0, 0, 0)

    def test_put_validates_fields(self):
        with pytest.raises(StoreError, match="missing field"):
            StrategyStore().put("k", {"outcome": "BST"})

    def test_merge_first_write_wins(self, solved):
        _, result = solved
        record = record_from_result(result)
        other = dict(record, nodes=record["nodes"] + 1)
        store = StrategyStore()
        added = store.merge([("a", record), ("a", other), ("b", other)])
        assert added == 2
        assert store._memory["a"] == record
        assert store.stats()["entries"] == 2
