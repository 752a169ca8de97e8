"""Static analysis for the repo's determinism & event-schema invariants.

Every reproducibility guarantee in this repository — bit-identical
FT-Search results across engines, byte-identical event logs for any
``jobs=`` worker count, replayable chaos artifacts — rests on a
determinism discipline: sim-time-only stamping, seeded RNG, canonical
iteration order, frozen values across the fabric pickle boundary.
``repro.analysis`` mechanizes that discipline as an AST-based linter
(``python -m repro.analysis``, or ``repro lint``) so violations fail CI
in milliseconds instead of surfacing as flaky 50-seed sweeps.

The rule catalog (R1..R8) is documented in ``docs/static-analysis.md``;
per-line suppressions use ``# repro: allow[R1] reason=...`` comments and
file-level exemptions live in ``analysis-allowlist.txt``, both of which
the tool inventories in its report.

The sibling :mod:`repro.analysis.typecheck` module implements the
type-check ratchet: the strict-module list of ``pyproject.toml``'s mypy
override gates in CI, every other module is the tolerated baseline.
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
