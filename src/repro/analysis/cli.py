"""Command-line front end: ``python -m repro.analysis`` / ``repro lint``.

Exit status: 0 when the tree is clean, 1 when any finding (or parse
error) survives suppression, 2 on usage/configuration errors — the same
contract as the event-stream validator, so CI treats both uniformly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.engine import run_analysis
from repro.analysis.rules import RULES

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The linter's argument parser (kept separate for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Determinism & event-schema linter: rules R1..R10 over the"
            " given files or directories."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="stdout format (default: text diagnostics + summary)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the canonical JSON report to this file",
    )
    parser.add_argument(
        "--allowlist",
        default=None,
        help="allowlist file (default: ./analysis-allowlist.txt if present)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            scope = "sim-path" if rule.sim_path_only else "all files"
            print(f"{rule.rule_id}  {rule.name:<20} [{scope}] {rule.summary}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"error: no such path {path}", file=sys.stderr)
        return 2

    allowlist = Path(args.allowlist) if args.allowlist is not None else None
    report = run_analysis(paths, allowlist_path=allowlist)

    if args.out is not None:
        Path(args.out).write_text(report.to_json())
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
