"""The analysis engine: file collection, two passes, suppression, report.

Pass 1 parses every file once (:func:`repro.analysis.facts.collect_facts`)
and runs the per-file rules; a file whose displayed path and source
are those of the previous run in this process reuses that run's pass-1
results. Pass 2 merges the cross-module facts: the
``EVENT_SCHEMA`` table and every emit site feed the typed schema
cross-check (R4), and the project-wide call resolution
(:mod:`repro.analysis.callgraph`) lets fabric hygiene (R10) find a
worker and its payload type in whatever module they live.
Suppressions (inline allow comments and the allowlist file) are applied
last, then audited: an allow comment that never absorbed a diagnostic
is itself an R8 finding.

The report is deliberately deterministic: diagnostics are sorted, the
JSON form uses sorted keys and fixed separators, and nothing in it
derives from the wall clock — the linter obeys the same discipline it
enforces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro.analysis.diagnostics import (
    AllowEntry,
    Diagnostic,
    Suppression,
    load_allowlist,
    parse_suppressions,
)
from repro.analysis.callgraph import build_call_graph
from repro.analysis.facts import (
    EmitSite,
    FileFacts,
    SchemaDef,
    collect_facts,
)
from repro.analysis.rules import (
    RULE_IDS,
    RULES,
    check_fabric_hygiene,
    check_file,
    check_schema,
)

__all__ = ["AnalysisReport", "run_analysis"]

#: Default allowlist filename, discovered in the working directory.
ALLOWLIST_NAME = "analysis-allowlist.txt"


@dataclass(frozen=True)
class _Pass1:
    """One file's pass-1 results: what the later passes read of it."""

    source: str
    facts: FileFacts
    #: R8 problems with its allow comments, then the per-file rules'.
    diagnostics: list[Diagnostic]
    #: Never handed out: a run marks its own copies used.
    suppressions: list[Suppression]


#: The previous run's pass-1 results by displayed path.
_previous: dict[str, _Pass1] = {}


def _pass1(path: Path, display: str, cached: Optional[_Pass1]) -> _Pass1:
    """Pass 1 for one file, or ``cached`` if its source is unchanged."""
    if cached is not None and cached.source == path.read_text():
        return cached
    facts = collect_facts(path, display)
    suppressions, r8_problems = parse_suppressions(
        facts.source, display, RULE_IDS
    )
    return _Pass1(
        facts.source, facts, r8_problems + check_file(facts), suppressions
    )


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    paths: list[str]
    files_checked: int
    diagnostics: list[Diagnostic]
    suppressed: list[tuple[Diagnostic, str]]
    suppressions: list[Suppression]
    allowlist: list[AllowEntry]
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics and not self.errors

    def counts(self) -> dict[str, int]:
        counts = {rule.rule_id: 0 for rule in RULES}
        for diagnostic in self.diagnostics:
            counts[diagnostic.rule] = counts.get(diagnostic.rule, 0) + 1
        return counts

    def to_dict(self) -> dict[str, object]:
        return {
            "version": 1,
            "tool": "repro.analysis",
            "paths": list(self.paths),
            "files_checked": self.files_checked,
            "ok": self.ok,
            "counts": self.counts(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": [
                {**diagnostic.to_dict(), "reason": reason}
                for diagnostic, reason in self.suppressed
            ],
            "suppressions": [s.to_dict() for s in self.suppressions],
            "allowlist": [entry.to_dict() for entry in self.allowlist],
            "errors": list(self.errors),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines: list[str] = []
        for error in self.errors:
            lines.append(f"error: {error}")
        for diagnostic in self.diagnostics:
            lines.append(diagnostic.render())
        n_suppressed = len(self.suppressed)
        summary = (
            f"{self.files_checked} file(s) checked,"
            f" {len(self.diagnostics)} finding(s),"
            f" {n_suppressed} suppressed"
        )
        lines.append(summary)
        return "\n".join(lines)


def _collect_python_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def run_analysis(
    paths: list[Path],
    allowlist_path: Optional[Path] = None,
) -> AnalysisReport:
    """Analyze every ``*.py`` under ``paths``; returns the full report.

    ``allowlist_path=None`` auto-discovers ``analysis-allowlist.txt`` in
    the current working directory (the repo root in CI); pass an explicit
    path to pin it, or a nonexistent one to run with no allowlist.
    """
    if allowlist_path is None:
        candidate = Path(ALLOWLIST_NAME)
        allowlist = load_allowlist(candidate) if candidate.exists() else []
    elif allowlist_path.exists():
        allowlist = load_allowlist(allowlist_path)
    else:
        allowlist = []

    errors: list[str] = []
    diagnostics: list[Diagnostic] = []
    suppressions: list[Suppression] = []
    modules: dict[str, str] = {}
    all_facts: list[FileFacts] = []
    facts_by_file: dict[str, FileFacts] = {}
    all_sites: list[EmitSite] = []
    all_defs: list[SchemaDef] = []
    files = _collect_python_files(paths)
    previous = dict(_previous)
    _previous.clear()

    for path in files:
        display = path.as_posix()
        try:
            result = _pass1(path, display, previous.get(display))
        except (OSError, SyntaxError) as exc:
            errors.append(f"{display}: {exc}")
            continue
        _previous[display] = result
        facts = result.facts
        modules[display] = facts.module
        all_facts.append(facts)
        facts_by_file[display] = facts
        all_sites.extend(facts.emit_sites)
        all_defs.extend(facts.schema_defs)
        suppressions.extend(replace(s) for s in result.suppressions)
        diagnostics.extend(result.diagnostics)

    diagnostics.extend(check_schema(all_sites, all_defs, facts_by_file))
    diagnostics.extend(
        check_fabric_hygiene(all_facts, build_call_graph(all_facts))
    )

    # Apply suppressions: inline comments first, then allowlist entries.
    # R8 findings are never suppressible — exemptions must stay auditable.
    active: list[Diagnostic] = []
    suppressed: list[tuple[Diagnostic, str]] = []
    for diagnostic in sorted(diagnostics):
        absorbed = False
        if diagnostic.rule != "R8":
            for suppression in suppressions:
                if suppression.covers(diagnostic):
                    suppression.used = True
                    suppressed.append((diagnostic, suppression.reason))
                    absorbed = True
                    break
            if not absorbed:
                module = modules.get(diagnostic.file, "")
                for entry in allowlist:
                    if entry.covers(diagnostic, module):
                        entry.matches += 1
                        suppressed.append((diagnostic, entry.reason))
                        absorbed = True
                        break
        if not absorbed:
            active.append(diagnostic)

    # Audit: every inline suppression must have absorbed something.
    for suppression in suppressions:
        if not suppression.used:
            active.append(
                Diagnostic(
                    suppression.file,
                    suppression.line,
                    0,
                    "R8",
                    "unused suppression: no"
                    f" {'/'.join(suppression.rules)} finding on the"
                    " covered line — remove the allow comment",
                )
            )

    return AnalysisReport(
        paths=[p.as_posix() for p in paths],
        files_checked=len(files),
        diagnostics=sorted(active),
        suppressed=suppressed,
        suppressions=suppressions,
        allowlist=allowlist,
        errors=errors,
    )
