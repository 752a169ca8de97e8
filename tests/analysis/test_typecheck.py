"""The typecheck ratchet's mypy-free checks, plus the repo's own state.

Everything here runs without mypy installed: the classification
invariants and the AST annotation-completeness check are pure Python, so
the ratchet's bookkeeping is enforced by the tier-1 suite even on
machines without the lint toolchain.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.typecheck import (
    check_annotations,
    check_classification,
    check_overrides,
    discover_modules,
    load_module_list,
    load_strict_overrides,
    main,
    module_for_path,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestClassification:
    MODULES = ["repro", "repro.a", "repro.a.x", "repro.b", "repro.c"]

    def test_clean_partition_is_ok(self):
        problems = check_classification(
            self.MODULES, ["repro.a"], ["repro", "repro.b", "repro.c"]
        )
        assert problems == []

    def test_strict_prefix_covers_submodules(self):
        # repro.a.x is covered by the repro.a prefix and needs no
        # baseline entry of its own.
        problems = check_classification(
            self.MODULES, ["repro.a"], ["repro", "repro.b", "repro.c"]
        )
        assert problems == []

    def test_unclassified_module_is_a_problem(self):
        problems = check_classification(
            self.MODULES, ["repro.a"], ["repro", "repro.b"]
        )
        assert len(problems) == 1
        assert problems[0].startswith("repro.c: unclassified")

    def test_module_in_both_lists_is_a_problem(self):
        problems = check_classification(
            self.MODULES,
            ["repro.a"],
            ["repro", "repro.a.x", "repro.b", "repro.c"],
        )
        assert any(p.startswith("repro.a.x: in both") for p in problems)

    def test_stale_baseline_entry_is_a_problem(self):
        problems = check_classification(
            self.MODULES,
            ["repro.a"],
            ["repro", "repro.b", "repro.c", "repro.gone"],
        )
        assert any("stale baseline" in p for p in problems)

    def test_stale_strict_prefix_is_a_problem(self):
        problems = check_classification(
            self.MODULES,
            ["repro.a", "repro.nothing"],
            ["repro", "repro.b", "repro.c"],
        )
        assert any("stale strict" in p for p in problems)

    def test_prefix_match_does_not_bleed_across_dots(self):
        # "repro.a" must not cover "repro.ab": if it did, repro.ab
        # would be reported as "in both lists" here.
        problems = check_classification(
            ["repro.a.x", "repro.ab"], ["repro.a"], ["repro.ab"]
        )
        assert problems == []


class TestOverrides:
    def test_prefix_is_module_plus_submodule_glob(self):
        assert check_overrides(["repro.a"], ["repro.a", "repro.a.*"]) == []

    def test_missing_and_extra_patterns_are_problems(self):
        problems = check_overrides(
            ["repro.a", "repro.b"], ["repro.a", "repro.a.*", "repro.c"]
        )
        assert len(problems) == 3
        assert problems[0].startswith("repro.b: implied by")
        assert problems[1].startswith("repro.b.*: implied by")
        assert problems[2].startswith("repro.c: in the strict mypy")

    def test_reads_only_the_strict_override(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.mypy]\n"
            "[[tool.mypy.overrides]]\n"
            'module = ["repro.a", "repro.a.*"]\n'
            "disallow_untyped_defs = true\n"
            "[[tool.mypy.overrides]]\n"
            'module = "thirdparty.*"\n'
            "ignore_errors = true\n"
        )
        assert load_strict_overrides(pyproject) == ["repro.a", "repro.a.*"]


class TestAnnotations:
    def _tree(self, tmp_path: Path, source: str) -> Path:
        root = tmp_path / "src" / "repro"
        root.mkdir(parents=True)
        (root / "__init__.py").write_text('"""Pkg."""\n')
        (root / "mod.py").write_text(source)
        return tmp_path / "src" / "repro"

    def test_fully_annotated_module_passes(self, tmp_path):
        root = self._tree(
            tmp_path,
            "def f(x: int, *args: int, **kw: int) -> int:\n"
            "    return x\n",
        )
        assert check_annotations(["repro"], root) == []

    def test_missing_param_annotation_flagged(self, tmp_path):
        root = self._tree(tmp_path, "def f(x) -> int:\n    return x\n")
        problems = check_annotations(["repro"], root)
        assert len(problems) == 1
        assert "unannotated parameter(s): x" in problems[0]

    def test_missing_return_annotation_flagged(self, tmp_path):
        root = self._tree(tmp_path, "def f(x: int):\n    return x\n")
        problems = check_annotations(["repro"], root)
        assert len(problems) == 1
        assert "no return annotation" in problems[0]

    def test_self_and_cls_exempt(self, tmp_path):
        root = self._tree(
            tmp_path,
            "class C:\n"
            "    def m(self) -> None: ...\n"
            "    @classmethod\n"
            "    def k(cls) -> None: ...\n",
        )
        assert check_annotations(["repro"], root) == []

    def test_non_strict_modules_skipped(self, tmp_path):
        root = self._tree(tmp_path, "def f(x):\n    return x\n")
        assert check_annotations(["repro.other"], root) == []


class TestModuleForPath:
    def test_plain_module(self):
        root = Path("src/repro")
        assert (
            module_for_path("src/repro/sim/kernel.py", root)
            == "repro.sim.kernel"
        )

    def test_package_init(self):
        root = Path("src/repro")
        module = module_for_path("src/repro/sim/__init__.py", root)
        assert module == "repro.sim"

    def test_outside_root_is_none(self):
        assert module_for_path("tests/foo.py", Path("src/repro")) is None


class TestRepoState:
    """The checked-in lists must describe the tree they ship with."""

    def test_lists_exactly_partition_the_tree(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        strict = load_module_list(Path("tools/typing-strict.txt"))
        baseline = load_module_list(Path("tools/typing-baseline.txt"))
        modules = discover_modules(Path("src/repro"))
        assert check_classification(modules, strict, baseline) == []

    def test_pyproject_override_names_exactly_the_strict_list(
        self, monkeypatch
    ):
        monkeypatch.chdir(REPO_ROOT)
        strict = load_module_list(Path("tools/typing-strict.txt"))
        assert check_overrides(strict, load_strict_overrides()) == []

    def test_strict_modules_fully_annotated(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        strict = load_module_list(Path("tools/typing-strict.txt"))
        assert check_annotations(strict, Path("src/repro")) == []

    def test_analysis_package_is_strict(self, monkeypatch):
        # The linter must obey the discipline it enforces.
        monkeypatch.chdir(REPO_ROOT)
        strict = load_module_list(Path("tools/typing-strict.txt"))
        assert "repro.analysis" in strict

    def test_cli_no_mypy_exits_zero(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["--no-mypy"]) == 0
        assert "typecheck: OK" in capsys.readouterr().out
