"""Unit tests for the application graph model."""

from __future__ import annotations

import pytest

from repro.core import ApplicationGraph, Component, ComponentKind, Edge
from repro.errors import GraphError


def build_diamond() -> ApplicationGraph:
    return ApplicationGraph.build(
        sources=["src"],
        pes=["a", "b", "c", "d"],
        sinks=["sink"],
        edges=[
            ("src", "a"),
            ("a", "b"),
            ("a", "c"),
            ("b", "d"),
            ("c", "d"),
            ("d", "sink"),
        ],
    )


class TestConstruction:
    def test_component_roles(self):
        graph = build_diamond()
        assert graph.kind("src") is ComponentKind.SOURCE
        assert graph.kind("a") is ComponentKind.PE
        assert graph.kind("sink") is ComponentKind.SINK

    def test_component_name_required(self):
        with pytest.raises(GraphError):
            Component("", ComponentKind.PE)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Edge("a", "a")

    def test_duplicate_component_rejected(self):
        with pytest.raises(GraphError, match="duplicate component"):
            ApplicationGraph(
                [
                    Component("x", ComponentKind.SOURCE),
                    Component("x", ComponentKind.SINK),
                ],
                [],
            )

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            ApplicationGraph.build(
                ["s"], ["p"], ["k"],
                [("s", "p"), ("s", "p"), ("p", "k")],
            )

    def test_dangling_edge_rejected(self):
        with pytest.raises(GraphError, match="not a component"):
            ApplicationGraph.build(["s"], ["p"], ["k"], [("s", "ghost")])

    def test_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            ApplicationGraph.build(
                ["s"], ["p", "q"], ["k"],
                [("s", "p"), ("p", "q"), ("q", "p"), ("q", "k")],
            )

    def test_source_with_predecessor_rejected(self):
        with pytest.raises(GraphError):
            ApplicationGraph.build(
                ["s", "s2"], ["p"], ["k"],
                [("s", "p"), ("p", "k"), ("p", "s2")],
            )

    def test_pe_without_successor_rejected(self):
        with pytest.raises(GraphError, match="must have predecessors"):
            ApplicationGraph.build(
                ["s"], ["p", "orphan"], ["k"], [("s", "p"), ("p", "k")]
            )

    def test_no_source_rejected(self):
        with pytest.raises(GraphError, match="no data source"):
            ApplicationGraph([Component("k", ComponentKind.SINK)], [])

    def test_no_sink_rejected(self):
        with pytest.raises(GraphError, match="no data sink"):
            ApplicationGraph([Component("s", ComponentKind.SOURCE)], [])


class TestTraversal:
    def test_pred_matches_edges(self):
        graph = build_diamond()
        assert set(graph.pred("d")) == {"b", "c"}
        assert graph.pred("src") == ()

    def test_succ_matches_edges(self):
        graph = build_diamond()
        assert set(graph.succ("a")) == {"b", "c"}
        assert graph.succ("sink") == ()

    def test_topological_order_respects_edges(self):
        graph = build_diamond()
        order = graph.topological_order
        position = {name: i for i, name in enumerate(order)}
        for edge in graph.edges:
            assert position[edge.tail] < position[edge.head]

    def test_pes_are_topologically_ordered(self):
        graph = build_diamond()
        pes = graph.pes
        assert pes.index("a") < pes.index("b")
        assert pes.index("b") < pes.index("d")
        assert pes.index("c") < pes.index("d")

    def test_depth_of(self):
        graph = build_diamond()
        assert graph.depth_of("src") == 0
        assert graph.depth_of("a") == 1
        assert graph.depth_of("d") == 3

    def test_pe_input_edges(self):
        graph = build_diamond()
        edges = graph.pe_input_edges("d")
        assert {(e.tail, e.head) for e in edges} == {("b", "d"), ("c", "d")}

    def test_pe_input_edges_rejects_non_pe(self):
        graph = build_diamond()
        with pytest.raises(GraphError):
            graph.pe_input_edges("sink")

    def test_unknown_component_raises(self):
        graph = build_diamond()
        with pytest.raises(GraphError):
            graph.pred("ghost")

    def test_components_and_edges_are_read_only(self):
        graph = build_diamond()
        with pytest.raises(TypeError):
            graph.components["x"] = Component("x", ComponentKind.PE)
        with pytest.raises(TypeError):
            del graph.components["a"]
        assert "x" not in graph and "a" in graph
        assert isinstance(graph.edges, tuple)
        assert isinstance(graph.pe_input_edges("d"), tuple)

    def test_contains_and_len(self):
        graph = build_diamond()
        assert "a" in graph
        assert "ghost" not in graph
        assert len(graph) == 6


class TestSerialisation:
    def test_round_trip(self):
        graph = build_diamond()
        clone = ApplicationGraph.from_dict(graph.to_dict())
        assert clone.to_dict() == graph.to_dict()
        assert clone.topological_order == graph.topological_order
