"""The nondeterminism classifiers behind R1, R2 and R3.

Three kinds of primitive make a run depend on something other than its
inputs, and each has one classifier here, consumed by the rule of the
same subject in :mod:`repro.analysis.rules`:

* wall-clock reads (R1) — ``time.time()`` and friends, including calls
  through a local alias;
* entropy and unseeded or module-level RNGs (R2);
* iteration over a set on an ordering-sensitive position (R3).

Every classifier is per file and purely syntactic: a finding lands on
the line of the primitive itself.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.facts import FileFacts, resolve_call_target

__all__ = [
    "classify_unseeded",
    "iter_iteration_sites",
    "iter_unseeded_calls",
    "iter_wallclock_calls",
    "wallclock_aliases",
]

# ----------------------------------------------------------------------
# Wall-clock primitives (R1's subject)
# ----------------------------------------------------------------------

WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def wallclock_aliases(facts: FileFacts) -> dict[str, str]:
    """Local aliases like ``monotonic = time.monotonic`` (a common
    hot-loop micro-optimization) must not evade the rule: calls through
    such a name are wall-clock reads too."""
    aliases: dict[str, str] = {}
    for node in facts.nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target_node = node.targets[0]
            if isinstance(target_node, ast.Name):
                resolved = resolve_call_target(facts, node.value)
                if resolved in WALLCLOCK_CALLS:
                    aliases[target_node.id] = resolved
    return aliases


def iter_wallclock_calls(facts: FileFacts) -> Iterator[tuple[ast.Call, str]]:
    """Every wall-clock read in the file, with its resolved target."""
    aliases = wallclock_aliases(facts)
    for node in facts.nodes:
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(facts, node.func)
        if target in aliases:
            target = aliases[target]
        if target in WALLCLOCK_CALLS:
            assert target is not None
            yield node, target


# ----------------------------------------------------------------------
# Entropy / unseeded-RNG primitives (R2's subject)
# ----------------------------------------------------------------------

ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbelow",
    }
)

#: numpy.random constructors that are fine *when given a seed argument*.
NUMPY_SEEDED_CTORS = frozenset(
    {
        "default_rng",
        "RandomState",
        "Generator",
        "SeedSequence",
        "PCG64",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


def classify_unseeded(
    target: Optional[str], has_seed_arg: bool
) -> Optional[str]:
    """The R2 complaint for one resolved call target, or ``None``."""
    if target is None:
        return None
    if target in ENTROPY_CALLS:
        return (
            f"{target}() draws OS entropy; derive values from an"
            " explicit seed instead"
        )
    if target in ("random.Random", "numpy.random.default_rng"):
        if not has_seed_arg:
            return (
                f"{target}() without a seed argument: construct"
                " RNGs from an explicit seed parameter"
            )
        return None
    if target == "random.SystemRandom":
        return (
            "random.SystemRandom draws OS entropy and can never"
            " be seeded"
        )
    if target.startswith("random."):
        return (
            f"{target}() uses the shared module-level RNG; construct"
            " random.Random(seed) from an explicit seed parameter"
        )
    if target.startswith("numpy.random."):
        member = target.rsplit(".", 1)[1]
        if member in NUMPY_SEEDED_CTORS:
            if not has_seed_arg:
                return (
                    f"{target}() without a seed argument: pass an"
                    " explicit seed"
                )
            return None
        return (
            f"{target}() uses numpy's global RNG state; use"
            " numpy.random.default_rng(seed) instead"
        )
    return None


def iter_unseeded_calls(facts: FileFacts) -> Iterator[tuple[ast.Call, str]]:
    """``(node, message)`` for every R2-positive call in the file."""
    for node in facts.nodes:
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(facts, node.func)
        has_seed_arg = bool(node.args) or bool(node.keywords)
        message = classify_unseeded(target, has_seed_arg)
        if message is not None:
            yield node, message


# ----------------------------------------------------------------------
# Ordering-sensitive set iteration (R3's subject)
# ----------------------------------------------------------------------

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)
_SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate"})
_ORDER_NEUTRAL_WRAPPERS = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset"}
)


def _set_typed_names(nodes: list[ast.AST]) -> set[str]:
    """Names assigned from set-valued expressions anywhere in ``nodes``."""
    names: set[str] = set()
    for node in nodes:
        value: Optional[ast.expr] = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign):
            value, targets = node.value, [node.target]
        if value is None or not _is_set_expr(value, names):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    """Whether ``node`` evaluates to a set (syntactically)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute):
            if func.attr == "keys" and not node.args:
                return True
            if func.attr in _SET_METHODS:
                return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPERATORS):
        # ``set(a) - set(b)``: the operator forms of the methods above.
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _sorted_ancestor(facts: FileFacts, node: ast.AST) -> bool:
    """Whether an enclosing call neutralizes iteration order."""
    for ancestor in facts.ancestors(node):
        if isinstance(ancestor, ast.Call):
            func = ancestor.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_NEUTRAL_WRAPPERS
            ):
                return True
        if isinstance(ancestor, ast.stmt):
            break
    return False


def iter_iteration_sites(facts: FileFacts) -> Iterator[tuple[ast.expr, str]]:
    """``(node, context)`` for every unsorted ordering-sensitive set
    iteration in the file."""
    set_names = _set_typed_names(facts.nodes)
    for node in facts.nodes:
        if isinstance(node, ast.For):
            if _is_set_expr(node.iter, set_names):
                if not _sorted_ancestor(facts, node.iter):
                    yield node.iter, "in a for loop"
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # SetComp is exempt: its result is itself a set, so the
            # iteration order of its source can never be observed.
            for generator in node.generators:
                if _is_set_expr(generator.iter, set_names):
                    if not _sorted_ancestor(facts, generator.iter):
                        yield generator.iter, "in a comprehension"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else None
            is_join = isinstance(func, ast.Attribute) and func.attr == "join"
            if (name in _ORDER_SENSITIVE_CALLS or is_join) and node.args:
                if _is_set_expr(node.args[0], set_names):
                    if not _sorted_ancestor(facts, node.args[0]):
                        yield node.args[0], f"passed to {name or 'join'}()"
