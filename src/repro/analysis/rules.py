"""The rule catalog: nine checks that mechanize the repo's invariants.

============  =====================  ==========================================
Rule          Name                   Invariant
============  =====================  ==========================================
R1            wall-clock             no wall-clock reads on sim paths; event
                                     time comes from the simulation clock only
R2            unseeded-random        RNGs are constructed from explicit seeds,
                                     never global/OS entropy
R3            unsorted-iteration     no iteration over sets / ``.keys()`` on
                                     ordering-sensitive positions without
                                     ``sorted(...)``
R4            event-schema           every literal event type emitted exists
                                     in ``EVENT_SCHEMA`` with its required
                                     payload keys and declared value types,
                                     and every schema entry has at least one
                                     emitter (no dead schema)
R5            unfrozen-spec          dataclasses crossing the fabric pickle
                                     boundary (``*Spec``) are ``frozen=True``
R6            object-identity        no ``id()`` / builtin ``hash()`` on sim
                                     paths (both vary across processes)
R7            import-fence           fenced modules never import the
                                     process fabric or threading machinery
R8            suppression            allow comments are well-formed, carry a
                                     reason, and actually suppress something
R10           fabric-hygiene         functions submitted to ``run_tasks``
                                     are top-level and take frozen/immutable
                                     payloads
============  =====================  ==========================================

R9 (shared-state) is retired: ``src/`` holds no cross-process shared
primitive. Its id is not reused. Scoping: R1, R2, R3, R4, R5, R8 and
R10 apply to every scanned file; R6 applies only to sim-path modules (``repro.sim``,
``repro.dsps``, ``repro.laar``, ``repro.chaos``, ``repro.elastic``,
``repro.fleet``, ``repro.obs``). R7 covers the sim path *and*
``repro.core``: the deterministic core is imported by every sim-path
module, so a process-bearing import there would breach the fence
transitively. The fence has no exceptions.
Legitimate exceptions to other rules are expressed per line with
``# repro: allow[Rn] reason=...`` or per module in the allowlist file —
never by editing the rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.callgraph import CallGraph, FuncInfo
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.effects import (
    iter_iteration_sites,
    iter_unseeded_calls,
    iter_wallclock_calls,
)
from repro.analysis.facts import (
    EmitSite,
    FileFacts,
    SchemaDef,
    resolve_call_target,
    walk_scope,
)

__all__ = [
    "RULES",
    "RULE_IDS",
    "Rule",
    "SIM_PATH_PREFIXES",
    "check_fabric_hygiene",
    "check_file",
    "check_schema",
]

#: Module prefixes forming the deterministic simulation path. Events,
#: digests and replayable artifacts are produced here, so the strictest
#: rules (R6, R7) apply only inside these trees.
SIM_PATH_PREFIXES = (
    "repro.sim",
    "repro.dsps",
    "repro.laar",
    "repro.chaos",
    "repro.elastic",
    "repro.fleet",
    "repro.obs",
)


@dataclass(frozen=True)
class Rule:
    """One rule's identity, for reports, docs and ``--list-rules``."""

    rule_id: str
    name: str
    summary: str
    sim_path_only: bool = False


RULES: tuple[Rule, ...] = (
    Rule("R1", "wall-clock", "no wall-clock reads on sim paths"),
    Rule("R2", "unseeded-random", "RNGs must take an explicit seed"),
    Rule(
        "R3",
        "unsorted-iteration",
        "set iteration must go through sorted()",
    ),
    Rule(
        "R4",
        "event-schema",
        "emitted events match EVENT_SCHEMA fields and types",
    ),
    Rule(
        "R5",
        "unfrozen-spec",
        "fabric-crossing *Spec dataclasses are frozen",
    ),
    Rule(
        "R6",
        "object-identity",
        "no id()/hash() on sim paths",
        sim_path_only=True,
    ),
    Rule(
        "R7",
        "import-fence",
        "sim/core modules never import the fabric",
        sim_path_only=True,
    ),
    Rule("R8", "suppression", "allow comments are well-formed and used"),
    Rule(
        "R10",
        "fabric-hygiene",
        "fabric workers are top-level with frozen payloads",
    ),
)

RULE_IDS: frozenset[str] = frozenset(rule.rule_id for rule in RULES)


def _is_sim_path(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in SIM_PATH_PREFIXES
    )


def _diag(
    facts: FileFacts, node: ast.AST, rule: str, message: str
) -> Diagnostic:
    return Diagnostic(
        file=facts.file,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule=rule,
        message=message,
    )


# ----------------------------------------------------------------------
# R1 — wall-clock (classifiers live in repro.analysis.effects)
# ----------------------------------------------------------------------


def _check_wallclock(facts: FileFacts) -> list[Diagnostic]:
    return [
        _diag(
            facts,
            node,
            "R1",
            f"wall-clock read {target}(): sim-path code must be"
            " stamped from the simulation clock only",
        )
        for node, target in iter_wallclock_calls(facts)
    ]


# ----------------------------------------------------------------------
# R2 — unseeded randomness
# ----------------------------------------------------------------------


def _check_unseeded_random(facts: FileFacts) -> list[Diagnostic]:
    return [
        _diag(facts, node, "R2", message)
        for node, message in iter_unseeded_calls(facts)
    ]


# ----------------------------------------------------------------------
# R3 — unsorted set iteration on ordering-sensitive positions
# ----------------------------------------------------------------------


def _check_unsorted_iteration(facts: FileFacts) -> list[Diagnostic]:
    return [
        _diag(
            facts,
            node,
            "R3",
            f"iteration over a set {context} is ordering-sensitive;"
            " wrap it in sorted(...) or a canonicalizer",
        )
        for node, context in iter_iteration_sites(facts)
    ]


# ----------------------------------------------------------------------
# R4 — event-schema cross-check (fields and their declared types)
# ----------------------------------------------------------------------

#: Valid type tags in a typed ``EVENT_SCHEMA`` entry. A trailing ``?``
#: marks a nullable field; ``float`` accepts ints (JSON does not keep
#: the distinction), ``int`` rejects bools.
_VALID_TAG_BASES = frozenset(
    {"str", "int", "float", "bool", "list", "dict", "any"}
)

#: Primitive annotation names mapped to schema tags, for inferring the
#: type of an annotated local used in an emit payload.
_ANNOTATION_TAGS = {
    "str": "str",
    "int": "int",
    "float": "float",
    "bool": "bool",
    "list": "list",
    "tuple": "list",  # tuples serialize as JSON arrays
    "dict": "dict",
}

_CAST_CALL_TAGS = {
    "str": "str",
    "int": "int",
    "float": "float",
    "bool": "bool",
    "len": "int",
    "sorted": "list",
    "list": "list",
    "tuple": "list",
    "dict": "dict",
    "repr": "str",
    "format": "str",
}


def _valid_tag(tag: str) -> bool:
    base = tag[:-1] if tag.endswith("?") else tag
    return base in _VALID_TAG_BASES


def _tag_compatible(inferred: str, declared: str) -> bool:
    if declared == "any":
        return True
    nullable = declared.endswith("?")
    base = declared[:-1] if nullable else declared
    if inferred == "null":
        return nullable
    if inferred.endswith("?"):
        if not nullable:
            return False
        inferred = inferred[:-1]
    if inferred == base:
        return True
    if base == "float" and inferred == "int":
        return True
    return False


def _annotation_tag(annotation: Optional[ast.expr]) -> Optional[str]:
    """The schema tag a simple type annotation denotes, if any."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Name):
        return _ANNOTATION_TAGS.get(annotation.id)
    if isinstance(annotation, ast.Subscript):
        value = annotation.value
        if isinstance(value, ast.Name) and value.id == "Optional":
            inner = _annotation_tag(annotation.slice)
            if inner is not None and not inner.endswith("?"):
                return inner + "?"
            return inner
        return _annotation_tag(value)
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        # ``float | None`` -> nullable float; other unions stay opaque.
        left = _annotation_tag(annotation.left)
        right = annotation.right
        if (
            left is not None
            and isinstance(right, ast.Constant)
            and right.value is None
        ):
            return left if left.endswith("?") else left + "?"
        return None
    if isinstance(annotation, ast.Attribute):
        return _ANNOTATION_TAGS.get(annotation.attr)
    return None


def _scope_nodes(facts: FileFacts, node: ast.AST) -> list[ast.AST]:
    """The enclosing function bodies (innermost first), then the module."""
    scopes: list[ast.AST] = []
    for ancestor in facts.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(ancestor)
    scopes.append(facts.tree)
    return scopes


def _name_tag(facts: FileFacts, use: ast.AST, name: str) -> Optional[str]:
    """Infer the tag of a bare name from annotations or its one
    constant assignment in an enclosing scope (innermost wins)."""
    for scope in _scope_nodes(facts, use):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
            ]:
                if arg.arg == name:
                    return _annotation_tag(arg.annotation)
        # One entry per assignment to ``name`` in this scope: its
        # constant's tag, or None for any other value.
        assigned: list[Optional[str]] = []
        for node in walk_scope(scope):
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if node.target.id == name:
                    return _annotation_tag(node.annotation)
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(target, ast.Name) and target.id == name
                    for target in node.targets
                ):
                    assigned.append(
                        _constant_tag(node.value.value)
                        if isinstance(node.value, ast.Constant)
                        else None
                    )
        if assigned:
            # The name is bound here: a single constant types it, an
            # initialiser that is later reassigned does not.
            return assigned[0] if len(assigned) == 1 else None
    return None


def _constant_tag(value: object) -> Optional[str]:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if value is None:
        return "null"
    return None


def infer_payload_tag(facts: FileFacts, node: ast.expr) -> Optional[str]:
    """The schema tag of one emit-payload expression, if inferable."""
    if isinstance(node, ast.Constant):
        return _constant_tag(node.value)
    if isinstance(node, ast.JoinedStr):
        return "str"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.List, ast.ListComp, ast.Tuple)):
        return "list"
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return "bool"
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.Not):
            return "bool"
        return infer_payload_tag(facts, node.operand)
    if isinstance(node, ast.BinOp):
        left = infer_payload_tag(facts, node.left)
        right = infer_payload_tag(facts, node.right)
        if left == "int" and right == "int":
            return "int"
        if {left, right} <= {"int", "float"} and left and right:
            return "float"
        return None
    if isinstance(node, ast.IfExp):
        body = infer_payload_tag(facts, node.body)
        orelse = infer_payload_tag(facts, node.orelse)
        if body == orelse:
            return body
        if {body, orelse} == {"null", None}:
            return None
        if body == "null" and orelse is not None:
            return orelse + "?" if not orelse.endswith("?") else orelse
        if orelse == "null" and body is not None:
            return body + "?" if not body.endswith("?") else body
        return None
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return _CAST_CALL_TAGS.get(func.id)
        return None
    if isinstance(node, ast.Name):
        return _name_tag(facts, node, node.id)
    return None


def check_schema(
    all_sites: list[EmitSite],
    all_defs: list[SchemaDef],
    facts_by_file: dict[str, FileFacts],
) -> list[Diagnostic]:
    """The cross-module half of R4, run after every file is parsed.

    * every literal event type emitted anywhere must be declared;
    * literal emit sites without ``**extra`` must pass every required
      payload field;
    * every declared schema entry must have at least one emitter in the
      scanned tree (dead-schema detection);
    * type tags must be well-formed, inferable payload values must
      match their declared tag, and every declared field must be passed
      literally at least once somewhere (a field only ever smuggled
      through ``**extra`` is never statically validated).

    With no ``EVENT_SCHEMA`` definition in the scanned tree the check is
    skipped entirely — a partial scan cannot judge schema membership.
    """
    if not all_defs:
        return []
    schema: dict[str, SchemaDef] = {}
    for schema_def in all_defs:
        schema.setdefault(schema_def.event_type, schema_def)
    diagnostics = []
    emitted_types = {site.event_type for site in all_sites}
    literal_fields: dict[str, set[str]] = {}
    for site in all_sites:
        literal_fields.setdefault(site.event_type, set()).update(site.keywords)
    for schema_def in schema.values():
        for field_name, tag in sorted(schema_def.type_map().items()):
            if not _valid_tag(tag):
                diagnostics.append(
                    Diagnostic(
                        schema_def.file,
                        schema_def.line,
                        0,
                        "R4",
                        f"schema entry '{schema_def.event_type}' declares"
                        f" unknown type tag {tag!r} for field"
                        f" '{field_name}'",
                    )
                )
    for site in all_sites:
        declared = schema.get(site.event_type)
        if declared is None:
            diagnostics.append(
                Diagnostic(
                    site.file,
                    site.line,
                    site.col,
                    "R4",
                    f"event type '{site.event_type}' is not declared in"
                    " EVENT_SCHEMA",
                )
            )
            continue
        types = declared.type_map()
        facts = facts_by_file[site.file]
        for field_name, value in site.values:
            tag = types.get(field_name)
            if tag is None:
                continue
            inferred = infer_payload_tag(facts, value)
            if inferred is None:
                continue
            if not _tag_compatible(inferred, tag):
                diagnostics.append(
                    Diagnostic(
                        site.file,
                        site.line,
                        site.col,
                        "R4",
                        f"event '{site.event_type}' field"
                        f" '{field_name}': payload is {inferred}"
                        f" but the schema declares {tag}",
                    )
                )
        if site.has_star_kwargs:
            continue  # dynamic payload: the runtime validator owns this
        missing = sorted(declared.fields - site.keywords)
        if missing:
            diagnostics.append(
                Diagnostic(
                    site.file,
                    site.line,
                    site.col,
                    "R4",
                    f"event '{site.event_type}' missing required payload"
                    f" field(s): {', '.join(missing)}",
                )
            )
    for event_type in sorted(set(schema) - emitted_types):
        declared = schema[event_type]
        diagnostics.append(
            Diagnostic(
                declared.file,
                declared.line,
                0,
                "R4",
                f"schema entry '{event_type}' has no emitter in the"
                " scanned tree (dead schema)",
            )
        )
    for event_type in sorted(schema):
        declared = schema[event_type]
        if event_type not in literal_fields:
            continue
        never = sorted(declared.fields - literal_fields[event_type])
        for field_name in never:
            diagnostics.append(
                Diagnostic(
                    declared.file,
                    declared.line,
                    0,
                    "R4",
                    f"field '{field_name}' of '{event_type}' is never"
                    " passed literally at any emit site, so its type is"
                    " never statically validated",
                )
            )
    return diagnostics


# ----------------------------------------------------------------------
# R5 — frozen-value discipline at the fabric pickle boundary
# ----------------------------------------------------------------------


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    for decorator in node.decorator_list:
        target = (
            decorator.func if isinstance(decorator, ast.Call) else decorator
        )
        name: Optional[str] = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return decorator
    return None


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    decorator = _dataclass_decorator(node)
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            )
    return False


def _check_unfrozen_spec(facts: FileFacts) -> list[Diagnostic]:
    diagnostics = []
    for node in facts.nodes:
        if not isinstance(node, ast.ClassDef):
            continue
        if not node.name.endswith("Spec"):
            continue
        if _dataclass_decorator(node) is None:
            continue
        if not _is_frozen_dataclass(node):
            diagnostics.append(
                _diag(
                    facts,
                    node,
                    "R5",
                    f"dataclass {node.name} crosses the fabric pickle"
                    " boundary (*Spec) and must be @dataclass(frozen=True)",
                )
            )
    return diagnostics


# ----------------------------------------------------------------------
# R6 — object identity (id() / builtin hash()) on sim paths
# ----------------------------------------------------------------------


def _check_object_identity(facts: FileFacts) -> list[Diagnostic]:
    if not _is_sim_path(facts.module):
        return []
    diagnostics = []
    hash_def_ranges: list[tuple[int, int]] = []
    for node in facts.nodes:
        if isinstance(node, ast.FunctionDef) and node.name == "__hash__":
            hash_def_ranges.append(
                (node.lineno, node.end_lineno or node.lineno)
            )
    for node in facts.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Name) or func.id not in ("id", "hash"):
            continue
        if func.id == "hash" and any(
            start <= node.lineno <= end for start, end in hash_def_ranges
        ):
            continue  # __hash__ implementations may delegate to hash()
        diagnostics.append(
            _diag(
                facts,
                node,
                "R6",
                f"{func.id}() varies across processes and hash seeds;"
                " never let it reach an event payload or digest",
            )
        )
    return diagnostics


# ----------------------------------------------------------------------
# R7 — import fences around the sim path and the deterministic core
# ----------------------------------------------------------------------

_BANNED_IMPORT_PREFIXES = (
    "repro.experiments",
    "multiprocessing",
    "concurrent",
    "threading",
    "subprocess",
)

#: Trees the fence covers beyond the sim path: the deterministic core
#: is imported by every sim-path module, so a process-bearing import
#: here would breach the fence transitively.
_CORE_FENCED_PREFIXES = ("repro.core",)

def _banned_import(module: str) -> Optional[str]:
    for prefix in _BANNED_IMPORT_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    return None


def _is_fenced_module(module: str) -> bool:
    return _is_sim_path(module) or any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _CORE_FENCED_PREFIXES
    )


def _check_import_fence(facts: FileFacts) -> list[Diagnostic]:
    if not _is_fenced_module(facts.module):
        return []
    diagnostics = []
    for node in facts.nodes:
        imported: list[str] = []
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.level == 0:
                imported = [node.module]
        for module in imported:
            banned = _banned_import(module)
            if banned is not None:
                diagnostics.append(
                    _diag(
                        facts,
                        node,
                        "R7",
                        f"fenced module imports {module!r}: the"
                        f" {banned} machinery is wall-clock/process-"
                        "bearing and fenced off the sim path and core",
                    )
                )
    return diagnostics


# ----------------------------------------------------------------------
# R10 — fabric task hygiene (project-level; needs the call graph)
# ----------------------------------------------------------------------

#: The fabric entry points whose first argument is a worker function.
_FABRIC_TASK_FUNCS = frozenset({"repro.experiments.parallel.run_tasks"})
#: The scenario driver's pass-through to ``run_tasks``: the worker is
#: checked where a scenario names it, not at the forwarding call.
_FABRIC_FORWARDERS = frozenset({"repro.driver.fan_out"})

#: Builtin payload types that are immutable enough to cross the pickle
#: boundary without a frozen dataclass (shallow immutability — a tuple
#: of lists still slips through; documented blind spot).
_IMMUTABLE_PAYLOAD_BASES = frozenset(
    {"str", "int", "float", "bool", "bytes", "tuple", "frozenset", "None"}
)


def _fabric_call_kind(
    graph: CallGraph, facts: FileFacts, node: ast.Call
) -> Optional[str]:
    """``run_tasks`` detection for one call."""
    dotted = resolve_call_target(facts, node.func)
    if dotted is not None:
        target = graph.resolve_export(dotted)
        # The second spelling is a call from the defining module itself
        # (``repro.driver`` calling its own ``fan_out``).
        for name in (target, f"{facts.module}.{target}"):
            if name in _FABRIC_TASK_FUNCS or name in _FABRIC_FORWARDERS:
                return "run_tasks"
    return None


def _payload_problem(graph: CallGraph, worker: FuncInfo) -> Optional[str]:
    """Why the worker's payload annotation violates R10, if it does."""
    args = worker.node.args
    params = [*args.posonlyargs, *args.args]
    if not params:
        return None
    payload = params[0]
    annotation = payload.annotation
    if annotation is None:
        return (
            f"worker {worker.name}() takes an unannotated payload"
            f" '{payload.arg}'; annotate it with a frozen *Spec (or"
            " immutable builtin) type"
        )
    base = annotation
    if isinstance(base, ast.Subscript):
        value = base.value
        if isinstance(value, ast.Name) and value.id == "Optional":
            base = base.slice
        else:
            base = value
    if isinstance(base, ast.Name) and base.id in _IMMUTABLE_PAYLOAD_BASES:
        return None
    resolved = graph.annotation_type(worker.facts, annotation)
    if resolved is not None and resolved in graph.classes:
        cinfo = graph.classes[resolved]
        if _is_frozen_dataclass(cinfo.node):
            return None
        return (
            f"worker {worker.name}() payload type {cinfo.name} is not"
            " a frozen dataclass; fabric payloads must be immutable"
        )
    described = ast.unparse(annotation)
    return (
        f"worker {worker.name}() payload type {described!r} is neither"
        " a scanned frozen dataclass nor an immutable builtin"
    )


def check_fabric_hygiene(
    all_facts: list[FileFacts], graph: CallGraph
) -> list[Diagnostic]:
    """R10, the one rule that needs every file's definitions: the
    worker named at a fabric call and its payload type may live in any
    scanned module."""
    diagnostics = []
    for facts in all_facts:
        for node in facts.nodes:
            if not isinstance(node, ast.Call):
                continue
            kind = _fabric_call_kind(graph, facts, node)
            if kind is None or not node.args:
                continue
            worker_expr = node.args[0]
            if isinstance(worker_expr, ast.Lambda):
                diagnostics.append(
                    _diag(
                        facts,
                        worker_expr,
                        "R10",
                        f"lambda submitted to {kind}: workers must be"
                        " top-level functions (lambdas cannot pickle)",
                    )
                )
                continue
            dotted = resolve_call_target(facts, worker_expr)
            if dotted is None:
                continue  # dynamically chosen worker: blind spot
            resolved = graph.resolve_export(dotted)
            candidates = [resolved, f"{facts.module}.{resolved}"]
            enclosing = graph.enclosing_function(facts, node)
            if enclosing is not None:
                candidates.insert(0, f"{enclosing.qualname}.{resolved}")
            worker = next(
                (
                    graph.functions[name]
                    for name in candidates
                    if name in graph.functions
                ),
                None,
            )
            if worker is None:
                continue  # worker outside the scan
            if worker.is_nested:
                diagnostics.append(
                    _diag(
                        facts,
                        worker_expr,
                        "R10",
                        f"nested function {worker.name}() submitted to"
                        f" {kind}: workers must be top-level so child"
                        " processes can unpickle them by module path",
                    )
                )
                continue
            if worker.is_method:
                diagnostics.append(
                    _diag(
                        facts,
                        worker_expr,
                        "R10",
                        f"method {worker.name}() submitted to {kind}:"
                        " workers must be top-level functions, not"
                        " bound methods dragging instance state",
                    )
                )
                continue
            problem = _payload_problem(graph, worker)
            if problem is not None:
                diagnostics.append(_diag(facts, worker_expr, "R10", problem))
    return diagnostics


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

_PER_FILE_CHECKS: tuple[Callable[[FileFacts], list[Diagnostic]], ...] = (
    _check_wallclock,
    _check_unseeded_random,
    _check_unsorted_iteration,
    _check_unfrozen_spec,
    _check_object_identity,
    _check_import_fence,
)


def check_file(facts: FileFacts) -> list[Diagnostic]:
    """Run every per-file rule over one parsed file."""
    diagnostics: list[Diagnostic] = []
    for check in _PER_FILE_CHECKS:
        diagnostics.extend(check(facts))
    return diagnostics
