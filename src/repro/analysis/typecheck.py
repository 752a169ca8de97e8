"""The type-check ratchet: strict modules gate, the rest are baselined.

The strict mypy override in ``pyproject.toml`` — the list mypy itself
reads — names the modules gated in CI (``repro.sim``,
``repro.core.optimizer``, ``repro.obs.events``, ``repro.analysis``, ...;
``x.*`` covers ``x`` and everything beneath it). Every other module is
the baseline. Two checks enforce the ratchet, both toolchain-free:

1. **classification** — no pattern of the override may be stale (match
   no module under ``src/repro``): a renamed or deleted strict module
   must not silently leave the gate. Promoting a module to strict is
   one added pattern; the strict set should only grow.
2. **annotations** — every ``def`` in a strict module must carry complete
   parameter and return annotations. This is a pure-AST check, so it
   runs in the test suite without mypy installed.

``python -m repro.analysis.typecheck`` runs both (exit 0/1). mypy reads
the same override when someone runs it; nothing here invokes it.
"""

from __future__ import annotations

import argparse
import ast
import tomllib
from pathlib import Path
from typing import Optional, Sequence

__all__ = [
    "check_annotations",
    "check_classification",
    "discover_modules",
    "load_strict_overrides",
    "main",
]

SRC_ROOT = Path("src/repro")
PYPROJECT = Path("pyproject.toml")


def load_strict_overrides(path: Path = PYPROJECT) -> list[str]:
    """Module patterns of the strict mypy override(s) in ``path``."""
    with path.open("rb") as handle:
        mypy = tomllib.load(handle).get("tool", {}).get("mypy", {})
    patterns: list[str] = []
    for override in mypy.get("overrides", []):
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
    """Does a pattern match ``module`` the way mypy matches it: ``x``
    is that module, ``x.*`` is ``x`` and every submodule."""
    return any(
        module == pattern
        or (pattern.endswith(".*") and (module + ".").startswith(pattern[:-1]))
        for pattern in strict
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
    modules: Sequence[str], strict: Sequence[str]
) -> list[str]:
    """Stale strict patterns (matching no module), as problem strings."""
    return [
        f"{pattern}: stale strict pattern in {PYPROJECT} (matches no module)"
        for pattern in strict
        if not any(_covered_by_strict(module, [pattern]) for module in modules)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the ratchet checks; exit 0 only when every gate passes."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.typecheck",
        description="Type-check ratchet: every def in a module of"
        " pyproject's strict override is fully annotated.",
    )
    parser.add_argument("--src-root", default=str(SRC_ROOT))
    args = parser.parse_args(argv)
    src_root = Path(args.src_root)

    strict = load_strict_overrides()
    modules = discover_modules(src_root)

    problems = check_classification(modules, strict)
    for problem in problems:
        print(f"classification: {problem}")

    annotation_problems = check_annotations(strict, src_root)
    for problem in annotation_problems:
        print(f"annotations: {problem}")

    failed = bool(problems or annotation_problems)
    strict_count = sum(
        1 for module in modules if _covered_by_strict(module, strict)
    )
    print(
        f"typecheck: {'FAIL' if failed else 'OK'} —"
        f" {strict_count}/{len(modules)} modules strict,"
        f" {len(modules) - strict_count} baselined"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
