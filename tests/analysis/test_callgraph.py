"""Call resolution: each query R10 resolves workers and payloads through.

Every test builds a tiny package in ``tmp_path`` (with the ``__init__``
chain that gives files real dotted module names) and asserts on one
query, so a regression names the resolution step that broke rather
than a downstream rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.callgraph import EXTERNAL, CallGraph, build_call_graph
from repro.analysis.facts import FileFacts, collect_facts


def _build(
    tmp_path: Path, modules: dict[str, str]
) -> tuple[CallGraph, dict[str, FileFacts]]:
    all_facts = []
    by_module: dict[str, FileFacts] = {}
    (tmp_path / "pkg").mkdir(exist_ok=True)
    (tmp_path / "pkg" / "__init__.py").touch()
    for name, source in modules.items():
        path = tmp_path / "pkg" / f"{name}.py"
        path.write_text(source)
    for path in sorted((tmp_path / "pkg").glob("*.py")):
        facts = collect_facts(path, str(path))
        all_facts.append(facts)
        by_module[facts.module] = facts
    return build_call_graph(all_facts), by_module


def _first_parameter_type(graph: CallGraph, function: str) -> str | None:
    """The resolved annotation of ``function``'s first parameter — the
    question R10 asks of a worker's payload."""
    info = graph.functions[function]
    return graph.annotation_type(info.facts, info.node.args.args[0].annotation)


class TestGraphQueries:
    def test_functions_methods_and_nested_defs_are_indexed(self, tmp_path):
        graph, _ = _build(
            tmp_path,
            {
                "mod": (
                    '"""Doc."""\n'
                    "class Widget:\n"
                    "    def poke(self) -> int:\n"
                    "        return 1\n"
                    "def outer() -> int:\n"
                    "    def inner() -> int:\n"
                    "        return 1\n"
                    "    return inner()\n"
                )
            },
        )
        assert graph.functions["pkg.mod.Widget.poke"].is_method
        assert not graph.functions["pkg.mod.outer"].is_nested
        assert graph.functions["pkg.mod.outer.inner"].is_nested
        assert "pkg.mod.Widget" in graph.classes

    def test_enclosing_function_finds_nested_scope(self, tmp_path):
        graph, by_module = _build(
            tmp_path,
            {
                "mod": (
                    '"""Doc."""\n'
                    "def outer() -> int:\n"
                    "    def inner() -> int:\n"
                    "        return 1\n"
                    "    return inner()\n"
                )
            },
        )
        facts = by_module["pkg.mod"]
        ret = next(
            n
            for n in ast.walk(facts.tree)
            if isinstance(n, ast.Return) and isinstance(n.value, ast.Constant)
        )
        info = graph.enclosing_function(facts, ret)
        assert info is not None
        assert info.qualname == "pkg.mod.outer.inner"
        assert info.is_nested

    def test_external_prefix_marks_foreign_types(self, tmp_path):
        graph, _ = _build(
            tmp_path,
            {
                "mod": (
                    '"""Doc."""\n'
                    "import queue\n"
                    "def use(q: queue.Queue) -> None:\n"
                    "    q.get()\n"
                )
            },
        )
        assert (
            _first_parameter_type(graph, "pkg.mod.use")
            == f"{EXTERNAL}queue.Queue"
        )


class TestResolutionLayers:
    def test_alias_resolves_through_package_reexport(self, tmp_path):
        graph, _ = _build(
            tmp_path,
            {
                "__init__": '"""Doc."""\nfrom pkg.impl import work\n',
                "impl": (
                    '"""Doc."""\n'
                    "def work() -> int:\n"
                    "    return 1\n"
                ),
            },
        )
        assert graph.resolve_export("pkg.work") == "pkg.impl.work"
        assert graph.resolve_export("pkg.impl.work") == "pkg.impl.work"
