"""Project-wide call resolution over the scanned tree (pass 2 substrate).

Pass 1 gives every file a :class:`~repro.analysis.facts.FileFacts`;
this module merges them into one :class:`CallGraph`: every function and
class indexed by dotted qualname, the re-export chains through package
``__init__`` files, and the type of a receiver expression where it can
be named. It holds the nodes and answers the questions that resolve a
call; no edge list is materialised, because the one consumer, fabric
hygiene (R10), asks about a handful of call sites: which function does
this ``run_tasks`` call submit, is this ``.map`` a
``PersistentPool.map``, and which class does the worker's payload
annotation denote — in whatever module each lives.

Resolution is deliberately *syntactic* — no file under analysis is ever
imported — and under-approximate: a name that cannot be resolved yields
``None``, never a guess.

* names go through ``from``-import and module-import aliases, followed
  through package re-exports (``from repro.core.optimizer import
  ft_search`` resolves to ``repro.core.optimizer.ftsearch.ft_search``);
* a receiver's type comes from parameter/variable annotations,
  assignment from a resolved constructor or from a call whose return
  annotation names a scanned class, and one level of annotated
  attribute access — what the tree's one ``PersistentPool.map`` site
  takes (``session = _get_session(jobs)``, ``_Session.pool:
  PersistentPool``, ``session.pool.map(...)``);
* a type that resolves to a dotted name *outside* the scan (e.g. a
  ``ProcessPoolExecutor``) is marked ``external:`` — known-foreign is
  not unknown.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional, Union

from repro.analysis.facts import FileFacts, resolve_call_target, walk_scope

__all__ = [
    "CallGraph",
    "ClassInfo",
    "FuncInfo",
    "build_call_graph",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Types resolved to a dotted name outside the scan are marked with
#: this prefix: enough to compare against a known foreign class without
#: ever matching a scanned one.
EXTERNAL = "external:"


@dataclass
class FuncInfo:
    """One function or method definition in the scanned tree."""

    qualname: str
    name: str
    class_qualname: Optional[str]
    is_nested: bool
    node: FunctionNode
    facts: FileFacts

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None


@dataclass
class ClassInfo:
    """One class definition in the scanned tree."""

    name: str
    node: ast.ClassDef
    facts: FileFacts

    def attr_annotation(self, attr: str) -> Optional[ast.expr]:
        """The class-body annotation of ``attr``, if it has one."""
        for stmt in self.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if stmt.target.id == attr:
                    return stmt.annotation
        return None


class CallGraph:
    """Merged definitions and call-resolution queries for one scan."""

    def __init__(self) -> None:
        self.functions: dict[str, FuncInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: ``module.bound -> absolute target`` for every from-import,
        #: giving re-export chains through package ``__init__`` files.
        self.reexports: dict[str, str] = {}
        self._scope_types: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def _index_file(self, facts: FileFacts) -> None:
        for bound, target in facts.name_aliases.items():
            self.reexports[f"{facts.module}.{bound}"] = target
        self._index_body(facts, facts.tree.body, facts.module, None, False)

    def _index_body(
        self,
        facts: FileFacts,
        body: list[ast.stmt],
        scope: str,
        class_qualname: Optional[str],
        nested: bool,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{scope}.{stmt.name}"
                info = FuncInfo(
                    qualname=qualname,
                    name=stmt.name,
                    class_qualname=class_qualname,
                    is_nested=nested,
                    node=stmt,
                    facts=facts,
                )
                self.functions.setdefault(qualname, info)
                self._index_body(facts, stmt.body, qualname, None, True)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{scope}.{stmt.name}"
                self.classes.setdefault(
                    qualname, ClassInfo(stmt.name, stmt, facts)
                )
                self._index_body(facts, stmt.body, qualname, qualname, nested)

    def enclosing_function(
        self, facts: FileFacts, node: ast.AST
    ) -> Optional[FuncInfo]:
        """The :class:`FuncInfo` lexically enclosing ``node``, if any."""
        chain = facts.ancestors(node)  # innermost first
        for index, ancestor in enumerate(chain):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [ancestor.name]
                for outer in chain[index + 1 :]:
                    if isinstance(
                        outer,
                        (
                            ast.FunctionDef,
                            ast.AsyncFunctionDef,
                            ast.ClassDef,
                        ),
                    ):
                        names.append(outer.name)
                qualname = ".".join([facts.module, *reversed(names)])
                return self.functions.get(qualname)
        return None

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------

    def resolve_export(self, dotted: str) -> str:
        """Follow re-export chains (``pkg.name -> pkg.module.name``)."""
        seen = set()
        while dotted in self.reexports and dotted not in seen:
            seen.add(dotted)
            dotted = self.reexports[dotted]
        return dotted

    def annotation_type(
        self, facts: FileFacts, node: Optional[ast.expr]
    ) -> Optional[str]:
        """Resolve an annotation to a scanned class qualname or
        ``external:<dotted>``; ``None`` when it cannot be named."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            base = self.annotation_type(facts, node.value)
            if base == f"{EXTERNAL}typing.Optional":
                inner = node.slice
                return self.annotation_type(facts, inner)
            return base
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = resolve_call_target(facts, node)
            if dotted is None:
                return None
            dotted = self.resolve_export(dotted)
            if dotted in self.classes:
                return dotted
            local = f"{facts.module}.{dotted}"
            if local in self.classes:
                return local
            return f"{EXTERNAL}{dotted}"
        return None

    def _scope_variable_types(self, info: FuncInfo) -> dict[str, str]:
        """Variable name -> resolved type inside one function scope."""
        cached = self._scope_types.get(info.qualname)
        if cached is not None:
            return cached
        types: dict[str, str] = {}
        args = info.node.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]:
            resolved = self.annotation_type(info.facts, arg.annotation)
            if resolved is not None:
                types[arg.arg] = resolved
        for node in walk_scope(info.node):
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                resolved = self.annotation_type(info.facts, node.annotation)
                if resolved is not None:
                    types[node.target.id] = resolved
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    resolved = self._value_type(info.facts, node.value)
                    if resolved is not None:
                        types[target.id] = resolved
        self._scope_types[info.qualname] = types
        return types

    def _value_type(self, facts: FileFacts, node: ast.expr) -> Optional[str]:
        """The type of an expression used as an assignment source."""
        if not isinstance(node, ast.Call):
            return None
        dotted = resolve_call_target(facts, node.func)
        if dotted is not None:
            dotted = self.resolve_export(dotted)
            for candidate in (dotted, f"{facts.module}.{dotted}"):
                if candidate in self.classes:
                    return candidate
                called = self.functions.get(candidate)
                if called is not None:
                    return self.annotation_type(
                        called.facts, called.node.returns
                    )
            if "." in dotted:
                return f"{EXTERNAL}{dotted}"
        return None

    # ------------------------------------------------------------------
    # Receiver types
    # ------------------------------------------------------------------

    def receiver_type(
        self, info: Optional[FuncInfo], node: ast.expr
    ) -> Optional[str]:
        """The resolved type of a method-call receiver expression."""
        if isinstance(node, ast.Name):
            if info is not None:
                scoped = self._scope_variable_types(info).get(node.id)
                if scoped is not None:
                    return scoped
            return None
        if isinstance(node, ast.Attribute):
            base = self.receiver_type(info, node.value)
            if base is None and isinstance(node.value, ast.Name):
                if node.value.id == "self" and info is not None:
                    base = info.class_qualname
            if base is not None and base in self.classes:
                owner = self.classes[base]
                return self.annotation_type(
                    owner.facts, owner.attr_annotation(node.attr)
                )
            return None
        return None


def build_call_graph(all_facts: list[FileFacts]) -> CallGraph:
    """Index every function, class and re-export of the scan."""
    graph = CallGraph()
    for facts in all_facts:
        graph._index_file(facts)
    return graph
