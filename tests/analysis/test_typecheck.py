"""The typecheck ratchet's two checks, plus the repo's own state.

Classification and AST annotation completeness are pure Python, so the
ratchet is enforced by the tier-1 suite with no lint toolchain.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.typecheck import (
    check_annotations,
    check_classification,
    discover_modules,
    load_strict_overrides,
    main,
    module_for_path,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestClassification:
    MODULES = ["repro", "repro.a", "repro.a.x", "repro.b", "repro.c"]

    def test_clean_partition_is_ok(self):
        # Whatever no pattern names is the baseline: nothing to list.
        assert check_classification(self.MODULES, ["repro.a.*"]) == []

    def test_strict_prefix_covers_submodules(self):
        # repro.a.x is covered by repro.a.* and keeps the pattern alive
        # on its own.
        assert check_classification(["repro.a.x"], ["repro.a.*"]) == []

    def test_stale_strict_prefix_is_a_problem(self):
        problems = check_classification(
            self.MODULES, ["repro.a.*", "repro.nothing"]
        )
        assert len(problems) == 1
        assert problems[0].startswith("repro.nothing: stale strict")

    def test_prefix_match_does_not_bleed_across_dots(self):
        # "repro.a.*" must not cover "repro.ab".
        problems = check_classification(["repro.ab"], ["repro.a.*"])
        assert len(problems) == 1


class TestOverrides:
    def test_prefix_is_module_plus_submodule_glob(self):
        # mypy's matching: "x" is that module alone, "x.*" is x and
        # everything beneath it.
        assert check_classification(["repro.a.x"], ["repro.a"]) != []
        assert check_classification(["repro.a"], ["repro.a.*"]) == []

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
        assert check_annotations(["repro.*"], root) == []

    def test_missing_param_annotation_flagged(self, tmp_path):
        root = self._tree(tmp_path, "def f(x) -> int:\n    return x\n")
        problems = check_annotations(["repro.*"], root)
        assert len(problems) == 1
        assert "unannotated parameter(s): x" in problems[0]

    def test_missing_return_annotation_flagged(self, tmp_path):
        root = self._tree(tmp_path, "def f(x: int):\n    return x\n")
        problems = check_annotations(["repro.*"], root)
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
        assert check_annotations(["repro.*"], root) == []

    def test_non_strict_modules_skipped(self, tmp_path):
        root = self._tree(tmp_path, "def f(x):\n    return x\n")
        assert check_annotations(["repro.other.*"], root) == []


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
    """The checked-in override must describe the tree it ships with."""

    def test_override_names_only_existing_modules(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        modules = discover_modules(Path("src/repro"))
        assert check_classification(modules, load_strict_overrides()) == []

    def test_strict_modules_fully_annotated(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        strict = load_strict_overrides()
        assert check_annotations(strict, Path("src/repro")) == []

    def test_analysis_package_is_strict(self, monkeypatch):
        # The linter must obey the discipline it enforces.
        monkeypatch.chdir(REPO_ROOT)
        assert "repro.analysis.*" in load_strict_overrides()

    def test_cli_exits_zero(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main([]) == 0
        assert "typecheck: OK" in capsys.readouterr().out
