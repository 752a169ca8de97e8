"""Project-wide call resolution over the scanned tree (pass 2 substrate).

Pass 1 gives every file a :class:`~repro.analysis.facts.FileFacts`;
this module merges them into one :class:`CallGraph`: every function and
class indexed by dotted qualname, and the re-export chains through
package ``__init__`` files. It holds the nodes and answers the questions
that resolve a call; no edge list is materialised, because the one
consumer, fabric hygiene (R10), asks about a handful of call sites:
which function does this ``run_tasks`` call submit, and which class
does the worker's payload annotation denote — in whatever module each
lives.

Resolution is deliberately *syntactic* — no file under analysis is ever
imported — and under-approximate: a name that cannot be resolved yields
``None``, never a guess.

* names go through ``from``-import and module-import aliases, followed
  through package re-exports (``from repro.core.optimizer import
  ft_search`` resolves to ``repro.core.optimizer.ftsearch.ft_search``);
* a type that resolves to a dotted name *outside* the scan (e.g. a
  ``ProcessPoolExecutor``) is marked ``external:`` — known-foreign is
  not unknown.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional, Union

from repro.analysis.facts import FileFacts, resolve_call_target

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


class CallGraph:
    """Merged definitions and call-resolution queries for one scan."""

    def __init__(self) -> None:
        self.functions: dict[str, FuncInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: ``module.bound -> absolute target`` for every from-import,
        #: giving re-export chains through package ``__init__`` files.
        self.reexports: dict[str, str] = {}

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


def build_call_graph(all_facts: list[FileFacts]) -> CallGraph:
    """Index every function, class and re-export of the scan."""
    graph = CallGraph()
    for facts in all_facts:
        graph._index_file(facts)
    return graph
