"""``tools/pairs.py``: the summariser on synthetic result documents.

The script's benchmark runs are not exercised here; its summary is a
pure function of the result documents, and that is what is judged.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "pairs", REPO_ROOT / "tools" / "pairs.py"
)
assert _spec is not None and _spec.loader is not None
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = {"wall_s": "lower", "throughput": "higher"}


def document(values: dict[str, dict[str, float]]) -> dict:
    """A result document as ``run.py --all --out`` writes it (only the
    fields the summariser reads)."""
    return {
        "workloads": {
            workload: {
                "end_to_end": {
                    name: {"value": value} for name, value in row.items()
                }
            }
            for workload, row in values.items()
        }
    }


PARENT = [
    document({"w": {"wall_s": wall, "throughput": 10.0}})
    for wall in (1.0, 1.2, 1.1, 1.3)
]
CHANGE = [
    document({"w": {"wall_s": wall, "throughput": rate}})
    for wall, rate in ((0.9, 11.0), (1.0, 9.0), (1.2, 12.0), (0.8, 10.0))
]


class TestSummarise:
    def test_medians_quartiles_and_wins(self):
        table = pairs.summarise(PARENT, CHANGE, METRICS)
        wall = table["w"]["wall_s"]
        assert wall["parent"] == pytest.approx(
            {"median": 1.15, "q1": 1.025, "q3": 1.275}
        )
        assert wall["change"]["median"] == pytest.approx(0.95)
        # Lower is better: pairs 1, 2 and 4 are wins, pair 3 (1.1 ->
        # 1.2) is not.
        assert wall["wins"] == 3

    def test_wins_follow_the_better_direction(self):
        table = pairs.summarise(PARENT, CHANGE, METRICS)
        # Higher is better: 11 and 12 beat 10; 9 loses, 10 ties.
        assert table["w"]["throughput"]["wins"] == 2

    def test_unequal_sides_are_refused(self):
        with pytest.raises(ValueError, match="equally many"):
            pairs.summarise(PARENT, CHANGE[:3], METRICS)

    def test_rendered_line(self):
        table = pairs.summarise(PARENT, CHANGE, METRICS)
        line = pairs.render(table, 4)[0]
        assert line.split()[:2] == ["w", "wall_s"]
        assert line.endswith(
            "1.15 [1.025, 1.275] → 0.95 [0.825, 1.15] (-17.4%, 3/4)"
        )


class TestLedgerRows:
    def test_rows_have_the_ledger_schema(self):
        table = pairs.summarise(PARENT, CHANGE, METRICS)
        (row,) = pairs.ledger_rows(
            table,
            pairs=4,
            seed=1,
            pr=99,
            parent_commit="abc1234",
            protocol="p",
            claim="w",
            cpu_count=2,
        )
        history = REPO_ROOT / "BENCH_history.jsonl"
        last = json.loads(history.read_text().splitlines()[-1])
        assert row.keys() == last.keys()
        assert row["kind"] == "gain"
        assert row["metrics"]["wall_s"] == {
            "change": {"median": 0.95, "q1": 0.825, "q3": 1.15},
            "parent": {"median": 1.15, "q1": 1.025, "q3": 1.275},
            "wins": 3,
        }
        assert json.loads(json.dumps(row, sort_keys=True)) == row

    def test_unclaimed_rows_claim_no_gain(self):
        table = pairs.summarise(PARENT, CHANGE, METRICS)
        (row,) = pairs.ledger_rows(
            table, pairs=4, seed=1, pr=99, parent_commit="x", protocol="p"
        )
        assert row["kind"] == "no-gain"
        assert row["source"].endswith("claims no gain")
