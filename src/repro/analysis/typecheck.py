"""The type-check ratchet: strict modules gate, the rest are baselined.

``tools/typing-strict.txt`` declares the module prefixes mypy gates in
CI (``repro.sim``, ``repro.core.optimizer``, ``repro.obs.events``,
``repro.placement.packing``, ``repro.analysis``);
``tools/typing-baseline.txt`` enumerates every other module, exactly.
Three checks enforce the ratchet:

1. **classification** — every module under ``src/repro`` must be covered
   by exactly one of the two lists, and neither list may carry stale
   entries. A new module therefore *must* be classified at birth, and
   promoting a module to strict means deleting its baseline line — the
   strict set can only grow. ``pyproject.toml``'s strict mypy override
   must name exactly the strict list (``x`` there is ``x`` plus ``x.*``
   here), so the flags mypy applies cannot drift from what is gated.
2. **annotations** — every ``def`` in a strict module must carry complete
   parameter and return annotations. This is a pure-AST check, so it
   runs in the test suite without mypy installed.
3. **mypy** — when mypy is available (CI installs the ``lint`` extra),
   run it over ``src/repro``: any error inside a strict module fails;
   errors in baselined modules are reported but tolerated.

``python -m repro.analysis.typecheck`` runs all three (exit 0/1); pass
``--no-mypy`` for the toolchain-free subset the test suite pins.
"""

from __future__ import annotations

import argparse
import ast
import re
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path
from typing import Optional, Sequence

__all__ = [
    "check_annotations",
    "check_classification",
    "check_overrides",
    "discover_modules",
    "load_module_list",
    "load_strict_overrides",
    "main",
    "run_mypy_gate",
]

SRC_ROOT = Path("src/repro")
STRICT_LIST = Path("tools/typing-strict.txt")
BASELINE_LIST = Path("tools/typing-baseline.txt")
PYPROJECT = Path("pyproject.toml")

_MYPY_ERROR_RE = re.compile(r"^(?P<path>[^:]+\.py):\d+(?::\d+)?: error: ")


def load_module_list(path: Path) -> list[str]:
    """Module names from one list file (comments and blanks stripped)."""
    modules: list[str] = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            modules.append(line)
    return modules


def load_strict_overrides(path: Path = PYPROJECT) -> list[str]:
    """Module patterns of the strict mypy override(s) in ``path``."""
    with path.open("rb") as handle:
        overrides = tomllib.load(handle)["tool"]["mypy"]["overrides"]
    patterns: list[str] = []
    for override in overrides:
        if override.get("disallow_untyped_defs"):
            module = override["module"]
            patterns.extend([module] if isinstance(module, str) else module)
    return patterns


def discover_modules(src_root: Path = SRC_ROOT) -> list[str]:
    """Every module under ``src_root`` as a dotted name, sorted."""
    root = src_root.resolve()
    modules: list[str] = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root.parent)
        parts = list(relative.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules.append(".".join(parts))
    return sorted(set(modules))


def _covered_by_strict(module: str, strict: Sequence[str]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in strict
    )


def module_for_path(path: str, src_root: Path = SRC_ROOT) -> Optional[str]:
    """The dotted module a ``src/repro/...`` file path belongs to."""
    try:
        relative = Path(path).with_suffix("").relative_to(src_root.parent)
    except ValueError:
        return None
    parts = list(relative.parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def check_classification(
    modules: Sequence[str],
    strict: Sequence[str],
    baseline: Sequence[str],
) -> list[str]:
    """The ratchet's bookkeeping invariants; returns problem strings."""
    problems: list[str] = []
    baseline_set = set(baseline)
    module_set = set(modules)
    for module in modules:
        in_strict = _covered_by_strict(module, strict)
        in_baseline = module in baseline_set
        if in_strict and in_baseline:
            problems.append(
                f"{module}: in both lists — a strict module must not"
                " keep a baseline entry"
            )
        elif not in_strict and not in_baseline:
            problems.append(
                f"{module}: unclassified — add it to"
                f" {STRICT_LIST} (preferred) or {BASELINE_LIST}"
            )
    for entry in baseline:
        if entry not in module_set:
            problems.append(
                f"{entry}: stale baseline entry (module no longer exists)"
            )
    for prefix in strict:
        if not any(_covered_by_strict(module, [prefix]) for module in modules):
            problems.append(
                f"{prefix}: stale strict entry (matches no module)"
            )
    return problems


def check_overrides(
    strict: Sequence[str], patterns: Sequence[str]
) -> list[str]:
    """Differences between the strict list and pyproject's override."""
    expected = {
        pattern for prefix in strict for pattern in (prefix, prefix + ".*")
    }
    listed = set(patterns)
    return [
        f"{pattern}: implied by {STRICT_LIST} but missing from the"
        f" strict mypy override in {PYPROJECT}"
        for pattern in sorted(expected - listed)
    ] + [
        f"{pattern}: in the strict mypy override in {PYPROJECT} but not"
        f" implied by {STRICT_LIST}"
        for pattern in sorted(listed - expected)
    ]


def _unannotated_defs(path: Path) -> list[str]:
    problems: list[str] = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = node.args
        positional = (
            arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        )
        missing = [
            arg.arg
            for arg in positional
            if arg.annotation is None and arg.arg not in ("self", "cls")
        ]
        for vararg in (arguments.vararg, arguments.kwarg):
            if vararg is not None and vararg.annotation is None:
                missing.append(vararg.arg)
        if missing:
            problems.append(
                f"{path}:{node.lineno}: {node.name}() has unannotated"
                f" parameter(s): {', '.join(missing)}"
            )
        if node.returns is None:
            problems.append(
                f"{path}:{node.lineno}: {node.name}() has no return"
                " annotation"
            )
    return problems


def check_annotations(
    strict: Sequence[str], src_root: Path = SRC_ROOT
) -> list[str]:
    """Annotation completeness for every strict module (pure AST)."""
    problems: list[str] = []
    for path in sorted(src_root.rglob("*.py")):
        module = module_for_path(path.as_posix(), src_root)
        if module is None or not _covered_by_strict(module, strict):
            continue
        problems.extend(_unannotated_defs(path))
    return problems


def run_mypy_gate(
    strict: Sequence[str],
    baseline: Sequence[str],
    src_root: Path = SRC_ROOT,
) -> tuple[list[str], list[str]]:
    """Run mypy and split its errors into (gating, baselined).

    Gating errors are those in strict modules — or in no known module at
    all (a path mypy resolved outside the ratchet's world should never
    be silently excused). Raises ``FileNotFoundError`` when mypy is not
    installed.
    """
    if shutil.which("mypy") is None:
        raise FileNotFoundError(
            "mypy is not installed (pip install -e '.[lint]')"
        )
    process = subprocess.run(
        ["mypy", "--no-error-summary", str(src_root)],
        capture_output=True,
        text=True,
    )
    gating: list[str] = []
    baselined: list[str] = []
    baseline_set = set(baseline)
    for line in process.stdout.splitlines():
        match = _MYPY_ERROR_RE.match(line.strip())
        if match is None:
            continue
        module = module_for_path(match.group("path"), src_root)
        if module is not None and not _covered_by_strict(module, strict):
            if module in baseline_set:
                baselined.append(line.strip())
                continue
        gating.append(line.strip())
    return gating, baselined


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the ratchet checks; exit 0 only when every gate passes."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.typecheck",
        description="Type-check ratchet: strict list gates, baseline"
        " tolerates, both lists must stay exact.",
    )
    parser.add_argument(
        "--no-mypy",
        action="store_true",
        help="run only the toolchain-free checks (classification +"
        " annotations)",
    )
    parser.add_argument("--src-root", default=str(SRC_ROOT))
    args = parser.parse_args(argv)
    src_root = Path(args.src_root)

    strict = load_module_list(STRICT_LIST)
    baseline = load_module_list(BASELINE_LIST)
    modules = discover_modules(src_root)

    problems = check_classification(modules, strict, baseline)
    problems += check_overrides(strict, load_strict_overrides())
    for problem in problems:
        print(f"classification: {problem}")

    annotation_problems = check_annotations(strict, src_root)
    for problem in annotation_problems:
        print(f"annotations: {problem}")

    gating: list[str] = []
    baselined: list[str] = []
    if not args.no_mypy:
        try:
            gating, baselined = run_mypy_gate(strict, baseline, src_root)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for line in gating:
            print(f"mypy (gating): {line}")
        if baselined:
            print(
                f"mypy: {len(baselined)} error(s) in baselined modules"
                " (tolerated; shrink the baseline to ratchet)"
            )

    failed = bool(problems or annotation_problems or gating)
    strict_count = sum(
        1 for module in modules if _covered_by_strict(module, strict)
    )
    print(
        f"typecheck: {'FAIL' if failed else 'OK'} —"
        f" {strict_count}/{len(modules)} modules strict,"
        f" {len(baseline)} baselined"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
