"""Static analysis for the repo's determinism & event-schema invariants.

Every reproducibility guarantee in this repository — bit-identical
FT-Search results across engines, byte-identical event logs for any
``jobs=`` worker count, replayable chaos artifacts — rests on a
determinism discipline: sim-time-only stamping, seeded RNG, canonical
iteration order, frozen values across the fabric pickle boundary.
``repro.analysis`` mechanizes the part of that discipline the dynamic
judges (tier-1, ``tools/digests.sh``, ``repro.obs.validate``) cannot
see as an AST-based linter (``python -m repro.analysis``, or ``repro
lint``): clock reads and set orders that are stable on one host, dead
schema entries, structure.

The rule catalog (R1..R10) and the mutation trial that decided what is
in it are in ``docs/static-analysis.md``; per-line suppressions use
``# repro: allow[R1] reason=...`` comments and file-level exemptions
live in ``analysis-allowlist.txt``, both of which the tool inventories
in its report.

The sibling :mod:`repro.analysis.typecheck` module implements the
type-check ratchet: every ``def`` in a module of ``pyproject.toml``'s
strict mypy override is fully annotated, every other module is the
tolerated baseline.
"""

from repro.analysis.diagnostics import Diagnostic, Suppression
from repro.analysis.engine import AnalysisReport, run_analysis
from repro.analysis.rules import RULES

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "RULES",
    "Suppression",
    "run_analysis",
]
