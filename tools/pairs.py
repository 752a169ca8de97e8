#!/usr/bin/env python3
"""Alternating parent/change pairs of the e2e benchmark, summarised.

::

    tools/pairs.py BASE --pairs N --seed S [--workload W]
                   [--ledger PR [--claim W]]

Archives BASE into a temporary directory, as ``tools/gate.sh`` does, and
runs ``benchmarks/e2e/run.py`` N times on each tree, alternating, parent
first: the suite (``--all``), or one workload for ``--workload W`` (at
the benchmark's own ``run_seconds``). A run whose output checks fail
stops the script. For every workload and every gated end-to-end metric
of ``BENCHMARK.json`` it then prints::

    workload  metric  parent median [q1, q3] → change median [q1, q3]
                      (Δ %, wins/N)

where a *win* is a pair in which the change is better and the quartiles
are those of ``statistics.quantiles(n=4)``, as in ``run.py --check``.
With ``--ledger PR`` it also prints one ``BENCH_history.jsonl`` row per
workload (``kind`` ``gain`` for the ``--claim`` workload, ``no-gain``
for the rest); append them to the ledger as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]

Table = dict[str, dict[str, dict[str, Any]]]


def gated_metrics(root: Path = ROOT) -> dict[str, str]:
    """Gated end-to-end metric -> which way is better (lower/higher)."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def _spread(values: Sequence[float]) -> dict[str, float]:
    q1, q3 = (
        statistics.quantiles(values, n=4)[::2]
        if len(values) > 1
        else (values[0], values[0])
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(
    parent: Sequence[dict[str, Any]],
    change: Sequence[dict[str, Any]],
    metrics: dict[str, str],
) -> Table:
    """Workload -> metric -> both sides' median and quartiles, and the
    number of pairs the change won.

    ``parent[i]`` and ``change[i]`` are the result documents of pair
    ``i``, shaped as ``run.py --all --out`` writes them:
    ``{"workloads": {name: {"end_to_end": {metric: {"value": x}}}}}``.
    """
    if not parent or len(parent) != len(change):
        raise ValueError(
            f"want equally many parent and change runs, got"
            f" {len(parent)} and {len(change)}"
        )
    table: Table = {}
    for workload in parent[0]["workloads"]:
        rows = table[workload] = {}
        for name, better in metrics.items():
            a, b = (
                [
                    doc["workloads"][workload]["end_to_end"][name]["value"]
                    for doc in side
                ]
                for side in (parent, change)
            )
            sign = 1.0 if better == "lower" else -1.0
            rows[name] = {
                "parent": _spread(a),
                "change": _spread(b),
                "wins": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
            }
    return table


def render(table: Table, pairs: int) -> list[str]:
    """One line per workload and metric."""
    lines = []
    for workload, rows in table.items():
        for name, row in rows.items():
            a, b = row["parent"], row["change"]
            delta = (b["median"] - a["median"]) / a["median"]
            lines.append(
                f"{workload:<18}{name:<13}"
                f"{a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] → "
                f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] "
                f"({delta:+.1%}, {row['wins']}/{pairs})"
            )
    return lines


def ledger_rows(
    table: Table,
    *,
    pairs: int,
    seed: int,
    pr: int,
    parent_commit: str,
    protocol: str,
    claim: Optional[str] = None,
    cpu_count: Optional[int] = None,
) -> list[dict[str, Any]]:
    """``BENCH_history.jsonl`` rows, one per workload, rounded to 4
    decimals; ``commit`` stays null until the change is committed."""
    return [
        {
            "commit": None,
            "cpu_count": cpu_count,
            "kind": "gain" if workload == claim else "no-gain",
            "metrics": {
                name: {
                    side: {
                        key: round(value, 4)
                        for key, value in row[side].items()
                    }
                    for side in ("change", "parent")
                }
                | {"wins": row["wins"]}
                for name, row in rows.items()
            },
            "pairs": pairs,
            "parent_commit": parent_commit,
            "pr": pr,
            "protocol": protocol,
            "seed": seed,
            "source": "tools/pairs.py: BASE archived, the change as the"
            " working tree; "
            + ("the claimed row" if workload == claim else "claims no gain"),
            "workload": workload,
        }
        for workload, rows in table.items()
    ]


def _run(tree: Path, seed: int, workload: Optional[str], out: Path) -> Any:
    """One benchmark run on ``tree``, as a result document."""
    command = [sys.executable, "benchmarks/e2e/run.py", "--seed", str(seed)]
    if workload is None:
        command += ["--all", "--out", str(out)]
    else:
        command += ["--workload", workload, "--report", str(out)]
    subprocess.run(
        command,
        cwd=tree,
        env=dict(os.environ, PYTHONPATH=""),
        stdout=subprocess.DEVNULL,
        check=True,
    )
    document = json.loads(out.read_text())
    return document if workload is None else {"workloads": {workload: document}}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base", help="the parent revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", help="one workload instead of --all")
    parser.add_argument(
        "--ledger", type=int, metavar="PR", help="print ledger rows too"
    )
    parser.add_argument(
        "--claim", metavar="WORKLOAD", help="the ledger row of the gain"
    )
    args = parser.parse_args(argv)
    base = subprocess.run(
        ["git", "rev-parse", "--short", f"{args.base}^{{commit}}"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    parent: list[Any] = []
    change: list[Any] = []
    with tempfile.TemporaryDirectory() as work:
        tree = Path(work, "base")
        tree.mkdir()
        archive = subprocess.run(
            ["git", "archive", base], cwd=ROOT, capture_output=True, check=True
        )
        subprocess.run(
            ["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True
        )
        out = Path(work, "result.json")
        for pair in range(1, args.pairs + 1):
            parent.append(_run(tree, args.seed, args.workload, out))
            change.append(_run(ROOT, args.seed, args.workload, out))
            print(f"pairs: {pair}/{args.pairs} done", file=sys.stderr)
    table = summarise(parent, change, gated_metrics())
    print("\n".join(render(table, args.pairs)))
    if args.ledger is not None:
        protocol = (
            "benchmarks/e2e/run.py --all"
            if args.workload is None
            else f"benchmarks/e2e/run.py --workload {args.workload}"
        ) + f" --seed {args.seed}, alternating parent/change pairs"
        for row in ledger_rows(
            table,
            pairs=args.pairs,
            seed=args.seed,
            pr=args.ledger,
            parent_commit=base,
            protocol=protocol,
            claim=args.claim,
            cpu_count=os.cpu_count(),
        ):
            print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
