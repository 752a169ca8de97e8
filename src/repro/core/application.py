"""Application model: components and the directed acyclic application graph.

The paper (Section 3 and 4.2) models a stream processing *application* as a
DAG ``G = (X, E)`` whose vertices are data *sources* (set ``I``), *processing
elements* (set ``P``) and data *sinks* (set ``O``), and whose edges are
communication channels. This module implements that structure together with
the ``pred`` function (Eq. 1), validation, and the graph traversals the rest
of the library relies on (topological order, reachability).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import GraphError

__all__ = [
    "ComponentKind",
    "Component",
    "Edge",
    "ApplicationGraph",
]


class ComponentKind(enum.Enum):
    """The role a component plays in the application graph."""

    SOURCE = "source"
    PE = "pe"
    SINK = "sink"


@dataclass(frozen=True, order=True)
class Component:
    """A vertex of the application graph.

    Components are identified by ``name``; two components with the same name
    are the same vertex. The ``kind`` determines the structural constraints
    the graph enforces on the vertex (sources have no predecessors, sinks
    have no successors, PEs have at least one of each).
    """

    name: str
    kind: ComponentKind = field(compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("component name must be a non-empty string")

    @property
    def is_source(self) -> bool:
        return self.kind is ComponentKind.SOURCE

    @property
    def is_pe(self) -> bool:
        return self.kind is ComponentKind.PE

    @property
    def is_sink(self) -> bool:
        return self.kind is ComponentKind.SINK

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.value}:{self.name}"


@dataclass(frozen=True, order=True)
class Edge:
    """A directed communication channel ``tail -> head``."""

    tail: str
    head: str

    def __post_init__(self) -> None:
        if self.tail == self.head:
            raise GraphError(f"self-loop on component {self.tail!r}")


class ApplicationGraph:
    """A validated application DAG.

    Parameters
    ----------
    components:
        The vertices. Names must be unique.
    edges:
        Directed edges between component names. Both endpoints must exist.

    Raises
    ------
    GraphError
        If names collide, edges dangle, the graph has a cycle, a source has
        predecessors, a sink has successors, a PE is missing predecessors or
        successors, or there is no source / no sink at all.

    The graph is immutable after validation, and every structural answer
    (role tuples, ``pred`` / ``succ`` / input-edge tuples, the component
    view) is a table built here, once: accessors return the stored
    object, so two reads are identical and nothing on the call path
    sorts, scans or allocates. The tables are read-only — a caller that
    shares a graph with others (tenants of one application do) cannot
    write into it.
    """

    def __init__(
        self, components: Iterable[Component], edges: Iterable[Edge]
    ) -> None:
        self._components: dict[str, Component] = {}
        for component in components:
            if component.name in self._components:
                raise GraphError(f"duplicate component name {component.name!r}")
            self._components[component.name] = component

        kept: list[Edge] = []
        succs: dict[str, list[str]] = {n: [] for n in self._components}
        entering: dict[str, list[Edge]] = {n: [] for n in self._components}
        seen_edges: set[tuple[str, str]] = set()
        for edge in edges:
            if edge.tail not in self._components:
                raise GraphError(f"edge tail {edge.tail!r} is not a component")
            if edge.head not in self._components:
                raise GraphError(f"edge head {edge.head!r} is not a component")
            key = (edge.tail, edge.head)
            if key in seen_edges:
                raise GraphError(f"duplicate edge {edge.tail!r} -> {edge.head!r}")
            seen_edges.add(key)
            kept.append(edge)
            succs[edge.tail].append(edge.head)
            entering[edge.head].append(edge)
        self._edges: tuple[Edge, ...] = tuple(kept)
        self._preds: dict[str, tuple[str, ...]] = {
            n: tuple(e.tail for e in into) for n, into in entering.items()
        }
        self._succs: dict[str, tuple[str, ...]] = {
            n: tuple(s) for n, s in succs.items()
        }

        self._validate_roles()
        self._topological = self._compute_topological_order()

        # The derived tables every accessor answers from.
        self._view: Mapping[str, Component] = MappingProxyType(
            self._components
        )
        by_kind: dict[ComponentKind, list[str]] = {
            kind: [] for kind in ComponentKind
        }
        for name in self._topological:
            by_kind[self._components[name].kind].append(name)
        self._sources = tuple(sorted(by_kind[ComponentKind.SOURCE]))
        self._pes = tuple(by_kind[ComponentKind.PE])
        self._sinks = tuple(sorted(by_kind[ComponentKind.SINK]))
        self._input_edges: dict[str, tuple[Edge, ...]] = {
            pe: tuple(entering[pe]) for pe in self._pes
        }

    def __reduce__(self) -> tuple[Any, ...]:
        # Rebuilt from its inputs on the other side: the tables are
        # derived, and a mappingproxy does not pickle.
        return type(self), (tuple(self._components.values()), self._edges)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        sources: Sequence[str],
        pes: Sequence[str],
        sinks: Sequence[str],
        edges: Iterable[tuple[str, str]],
    ) -> "ApplicationGraph":
        """Build a graph from plain name lists and ``(tail, head)`` pairs."""
        components = (
            [Component(n, ComponentKind.SOURCE) for n in sources]
            + [Component(n, ComponentKind.PE) for n in pes]
            + [Component(n, ComponentKind.SINK) for n in sinks]
        )
        return cls(components, [Edge(t, h) for t, h in edges])

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate_roles(self) -> None:
        if not any(c.is_source for c in self._components.values()):
            raise GraphError("application has no data source")
        if not any(c.is_sink for c in self._components.values()):
            raise GraphError("application has no data sink")
        for component in self._components.values():
            preds = self._preds[component.name]
            succs = self._succs[component.name]
            if component.is_source and preds:
                raise GraphError(
                    f"source {component.name!r} has predecessors {list(preds)}"
                )
            if component.is_sink and succs:
                raise GraphError(
                    f"sink {component.name!r} has successors {list(succs)}"
                )
            if component.is_source and not succs:
                raise GraphError(f"source {component.name!r} has no successors")
            if component.is_sink and not preds:
                raise GraphError(f"sink {component.name!r} has no predecessors")
            if component.is_pe and (not preds or not succs):
                raise GraphError(
                    f"PE {component.name!r} must have predecessors and successors"
                )
        for edge in self._edges:
            if self._components[edge.head].is_pe:
                continue
            if self._components[edge.head].is_sink:
                continue
            raise GraphError(
                f"edge {edge.tail!r} -> {edge.head!r} ends in a source"
            )

    def _compute_topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm [20]; raises on cycles."""
        in_degree = {name: len(p) for name, p in self._preds.items()}
        ready = deque(sorted(n for n, d in in_degree.items() if d == 0))
        order: list[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            for succ in self._succs[name]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._components):
            unresolved = sorted(n for n, d in in_degree.items() if d > 0)
            raise GraphError(f"application graph has a cycle through {unresolved}")
        return tuple(order)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def components(self) -> Mapping[str, Component]:
        """Read-only view of the components by name, in input order."""
        return self._view

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges, in input order."""
        return self._edges

    @property
    def sources(self) -> tuple[str, ...]:
        """Source names, in deterministic (sorted) order."""
        return self._sources

    @property
    def pes(self) -> tuple[str, ...]:
        """PE names in topological order (stable across runs)."""
        return self._pes

    @property
    def sinks(self) -> tuple[str, ...]:
        """Sink names, in deterministic (sorted) order."""
        return self._sinks

    @property
    def topological_order(self) -> tuple[str, ...]:
        return self._topological

    def kind(self, name: str) -> ComponentKind:
        return self._component(name).kind

    def pred(self, name: str) -> tuple[str, ...]:
        """The ``pred`` function of Eq. 1: predecessors of ``name``."""
        try:
            return self._preds[name]
        except KeyError:
            raise GraphError(f"unknown component {name!r}") from None

    def succ(self, name: str) -> tuple[str, ...]:
        """Successors of ``name``, in edge input order."""
        try:
            return self._succs[name]
        except KeyError:
            raise GraphError(f"unknown component {name!r}") from None

    def pe_input_edges(self, name: str) -> tuple[Edge, ...]:
        """All edges entering PE ``name`` (the (x_j, x_i) pairs of Sec. 4.2)."""
        try:
            return self._input_edges[name]
        except KeyError:
            self._component(name)
            raise GraphError(f"{name!r} is not a PE") from None

    def _component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise GraphError(f"unknown component {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._components

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[Component]:
        return iter(self._components.values())

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    def depth_of(self, name: str) -> int:
        """Length of the longest path from any source to ``name``."""
        depth: dict[str, int] = {}
        for node in self._topological:
            preds = self._preds[node]
            depth[node] = 0 if not preds else 1 + max(depth[p] for p in preds)
        self._component(name)
        return depth[name]

    def to_dict(self) -> dict:
        """A JSON-friendly description of the graph."""
        return {
            "sources": list(self.sources),
            "pes": list(self.pes),
            "sinks": list(self.sinks),
            "edges": [[e.tail, e.head] for e in self._edges],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ApplicationGraph":
        return cls.build(
            sources=list(payload["sources"]),
            pes=list(payload["pes"]),
            sinks=list(payload["sinks"]),
            edges=[tuple(e) for e in payload["edges"]],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ApplicationGraph(sources={len(self.sources)}, "
            f"pes={len(self.pes)}, sinks={len(self.sinks)}, "
            f"edges={len(self._edges)})"
        )
