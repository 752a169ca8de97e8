"""Per-file facts: parsed AST, import aliases, emit sites, schema defs.

Pass 1 of the engine turns every scanned file into a :class:`FileFacts`
value. Rules consume these; the cross-module checks (R4) additionally
merge the ``schema`` and ``emit_sites`` facts from every file before
judging anything, so an event type emitted in one module and declared
in another is resolved correctly.

Everything here is purely syntactic — no file under analysis is ever
imported, so linting a fixture corpus full of deliberate violations is
safe.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

__all__ = [
    "EmitSite",
    "FileFacts",
    "SchemaDef",
    "collect_facts",
    "module_name_for",
    "resolve_call_target",
    "walk_scope",
]


def module_name_for(path: Path) -> str:
    """The dotted module name, derived from the ``__init__.py`` chain.

    Walks up from ``path`` while the parent directory is a package
    (contains ``__init__.py``); works for any rooted scan, including
    fixture corpora that mimic the real package layout.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) if parts else path.stem


@dataclass(frozen=True)
class EmitSite:
    """One ``*.emit("event.type", key=..., **extra)`` call site."""

    file: str
    line: int
    col: int
    event_type: str
    keywords: frozenset[str]
    has_star_kwargs: bool
    #: The keyword value expressions, for payload type inference. AST
    #: nodes compare by identity, so these stay out of equality.
    values: tuple[tuple[str, ast.expr], ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class SchemaDef:
    """One ``EVENT_SCHEMA`` entry: an event type, its required fields
    and (``types``) the declared type tag of each."""

    file: str
    line: int
    event_type: str
    fields: frozenset[str]
    types: tuple[tuple[str, str], ...]

    def type_map(self) -> dict[str, str]:
        return dict(self.types)


@dataclass
class FileFacts:
    """Everything a rule needs to know about one scanned file."""

    path: Path
    file: str  # display path (as given on the command line)
    module: str
    source: str
    tree: ast.Module
    #: Every node of ``tree`` in ``ast.walk`` order: the file is walked
    #: once, and every rule iterates this list.
    nodes: list[ast.AST] = field(default_factory=list)
    parents: dict[int, ast.AST] = field(default_factory=dict)
    module_aliases: dict[str, str] = field(default_factory=dict)
    name_aliases: dict[str, str] = field(default_factory=dict)
    emit_sites: list[EmitSite] = field(default_factory=list)
    schema_defs: list[SchemaDef] = field(default_factory=list)

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(id(node))

    def ancestors(self, node: ast.AST) -> list[ast.AST]:
        chain: list[ast.AST] = []
        current = self.parent_of(node)
        while current is not None:
            chain.append(current)
            current = self.parent_of(current)
        return chain


def _collect_imports(facts: FileFacts) -> None:
    """Build the alias maps used to resolve dotted call targets.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``; ``from
    datetime import datetime`` maps ``datetime -> datetime.datetime``.
    Relative imports carry no resolvable absolute module and are skipped.
    """
    for node in facts.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else bound
                facts.module_aliases[bound] = target
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                facts.name_aliases[bound] = f"{node.module}.{alias.name}"


def resolve_call_target(facts: FileFacts, func: ast.expr) -> Optional[str]:
    """The absolute dotted name a call expression refers to, if knowable.

    ``np.random.rand`` resolves to ``numpy.random.rand`` through the
    import aliases; ``self.rng.random`` resolves to ``None`` (the base is
    not an imported module, so the target cannot be named statically).
    Bare names resolve through ``from``-import aliases or to themselves
    (builtins like ``id`` and ``sorted``).
    """
    attrs: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = node.id
    if base in facts.name_aliases:
        resolved = facts.name_aliases[base]
    elif base in facts.module_aliases:
        resolved = facts.module_aliases[base]
    elif not attrs:
        return base  # a bare name: builtin or local
    else:
        return None  # attribute access on a non-module object
    return ".".join([resolved, *reversed(attrs)])


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node of one scope (a module or a function), nested ones
    excluded: the body of an inner function, lambda or class binds its
    own names, so its definition node is yielded but not entered."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            stack.extend(ast.iter_child_nodes(node))


def _collect_emit_sites(facts: FileFacts) -> None:
    """Record every ``<obj>.emit("literal.type", ...)`` call."""
    for node in facts.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if not isinstance(first, ast.Constant):
            continue  # forwarding wrappers like emit(type_, **fields)
        if not isinstance(first.value, str):
            continue
        keywords = frozenset(
            kw.arg for kw in node.keywords if kw.arg is not None
        )
        has_star = any(kw.arg is None for kw in node.keywords)
        facts.emit_sites.append(
            EmitSite(
                file=facts.file,
                line=node.lineno,
                col=node.col_offset,
                event_type=first.value,
                keywords=keywords,
                has_star_kwargs=has_star,
                values=tuple(
                    (kw.arg, kw.value)
                    for kw in node.keywords
                    if kw.arg is not None
                ),
            )
        )


def _typed_literal_fields(
    node: ast.expr,
) -> Optional[tuple[tuple[str, str], ...]]:
    """The ``{"field": "type", ...}`` pairs of a typed schema entry."""
    if not isinstance(node, ast.Dict):
        return None
    pairs: list[tuple[str, str]] = []
    for key, value in zip(node.keys, node.values):
        if not (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            return None
        pairs.append((key.value, value.value))
    return tuple(pairs)


def _collect_schema_defs(facts: FileFacts) -> None:
    """Parse ``EVENT_SCHEMA`` literals: ``{"type": {"field": "tag",
    ...}, ...}``. An entry that is not such a dict literal declares
    nothing, so its emitters are flagged as undeclared."""
    for node in facts.nodes:
        value: Optional[ast.expr] = None
        target_name: Optional[str] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                target_name = target.id
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                target_name = node.target.id
            value = node.value
        if target_name != "EVENT_SCHEMA" or not isinstance(value, ast.Dict):
            continue
        for key, entry in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                continue
            types = _typed_literal_fields(entry)
            if types is None:
                continue
            facts.schema_defs.append(
                SchemaDef(
                    file=facts.file,
                    line=key.lineno,
                    event_type=key.value,
                    fields=frozenset(name for name, _tag in types),
                    types=types,
                )
            )


def collect_facts(path: Path, display: str) -> FileFacts:
    """Parse one file and gather every fact the rules consume."""
    source = path.read_text()
    tree = ast.parse(source, filename=display)
    facts = FileFacts(
        path=path,
        file=display,
        module=module_name_for(path),
        source=source,
        tree=tree,
    )
    # The one walk, breadth-first in ast.walk's order: the list is its
    # own queue, so every node is visited as it is appended.
    nodes = facts.nodes
    nodes.append(tree)
    for parent in nodes:
        for child in ast.iter_child_nodes(parent):
            facts.parents[id(child)] = parent
            nodes.append(child)
    _collect_imports(facts)
    _collect_emit_sites(facts)
    _collect_schema_defs(facts)
    return facts
