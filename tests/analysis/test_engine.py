"""Engine behavior: suppression channels, reports, CLI exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.diagnostics import load_allowlist
from repro.analysis.engine import run_analysis

FIXTURES = Path(__file__).parent / "fixtures"
NO_ALLOWLIST = FIXTURES / "missing-allowlist"


def _write_module(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(source)
    return path


class TestInlineSuppression:
    def test_trailing_comment_suppresses_its_line(self, tmp_path):
        path = _write_module(
            tmp_path,
            "mod.py",
            '"""Doc."""\n'
            "import time\n"
            "t = time.time()  # repro: allow[R1] reason=trailing form\n",
        )
        report = run_analysis([path], allowlist_path=NO_ALLOWLIST)
        assert report.diagnostics == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0][1] == "trailing form"

    def test_standalone_comment_binds_to_next_code_line(self, tmp_path):
        path = _write_module(
            tmp_path,
            "mod.py",
            '"""Doc."""\n'
            "import time\n"
            "# repro: allow[R1] reason=standalone form\n"
            "t = time.time()\n",
        )
        report = run_analysis([path], allowlist_path=NO_ALLOWLIST)
        assert report.diagnostics == []
        assert len(report.suppressed) == 1

    def test_suppression_is_rule_specific(self, tmp_path):
        path = _write_module(
            tmp_path,
            "mod.py",
            '"""Doc."""\n'
            "import time\n"
            "t = time.time()  # repro: allow[R2] reason=wrong rule\n",
        )
        report = run_analysis([path], allowlist_path=NO_ALLOWLIST)
        # The R1 finding survives AND the R2 comment is unused: two
        # findings from one bad suppression.
        rules = sorted(d.rule for d in report.diagnostics)
        assert rules == ["R1", "R8"]

    def test_r8_is_never_suppressible(self, tmp_path):
        path = _write_module(
            tmp_path,
            "mod.py",
            '"""Doc."""\n'
            "# repro: allow[R8] reason=self-waiver must not work\n"
            "x = 1\n",
        )
        report = run_analysis([path], allowlist_path=NO_ALLOWLIST)
        assert [d.rule for d in report.diagnostics] == ["R8"]
        assert "unused suppression" in report.diagnostics[0].message

    def test_unknown_rule_id_is_malformed(self, tmp_path):
        path = _write_module(
            tmp_path,
            "mod.py",
            '"""Doc."""\n'
            "# repro: allow[R99] reason=no such rule\n"
            "x = 1\n",
        )
        report = run_analysis([path], allowlist_path=NO_ALLOWLIST)
        assert [d.rule for d in report.diagnostics] == ["R8"]


class TestAllowlist:
    def _bad_module(self, tmp_path: Path) -> Path:
        return _write_module(
            tmp_path,
            "mod.py",
            '"""Doc."""\nimport time\nt = time.time()\n',
        )

    def test_path_glob_entry_suppresses(self, tmp_path):
        target = self._bad_module(tmp_path)
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text(f"{tmp_path.as_posix()}/* R1 harness file\n")
        report = run_analysis([target], allowlist_path=allowlist)
        assert report.diagnostics == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0][1] == "harness file"
        assert report.allowlist[0].matches == 1

    def test_wildcard_rule_matches_any_rule(self, tmp_path):
        target = self._bad_module(tmp_path)
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text(f"{tmp_path.as_posix()}/* * vendored\n")
        report = run_analysis([target], allowlist_path=allowlist)
        assert report.diagnostics == []

    def test_non_matching_entry_does_not_suppress(self, tmp_path):
        target = self._bad_module(tmp_path)
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text("some.other.module R1 elsewhere\n")
        report = run_analysis([target], allowlist_path=allowlist)
        assert [d.rule for d in report.diagnostics] == ["R1"]

    def test_malformed_allowlist_line_raises(self, tmp_path):
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text("just-a-glob-no-rule-or-reason\n")
        with pytest.raises(ValueError):
            load_allowlist(allowlist)

    def test_missing_allowlist_path_means_no_allowlist(self, tmp_path):
        target = self._bad_module(tmp_path)
        report = run_analysis([target], allowlist_path=tmp_path / "absent.txt")
        assert [d.rule for d in report.diagnostics] == ["R1"]
        assert report.allowlist == []


class TestReport:
    def test_json_report_shape(self, tmp_path):
        report = run_analysis([FIXTURES / "bad"], allowlist_path=NO_ALLOWLIST)
        data = json.loads(report.to_json())
        assert data["tool"] == "repro.analysis"
        assert data["version"] == 1
        assert data["ok"] is False
        assert data["files_checked"] == 15
        assert sorted(data["counts"]) == sorted(
            f"R{n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 10)
        )
        assert sum(data["counts"].values()) == len(data["diagnostics"])
        first = data["diagnostics"][0]
        assert set(first) == {"file", "line", "col", "rule", "message"}

    def test_json_is_deterministic(self):
        a = run_analysis([FIXTURES / "bad"], allowlist_path=NO_ALLOWLIST)
        b = run_analysis([FIXTURES / "bad"], allowlist_path=NO_ALLOWLIST)
        assert a.to_json() == b.to_json()

    def test_render_text_summary_line(self):
        report = run_analysis([FIXTURES / "good"], allowlist_path=NO_ALLOWLIST)
        assert report.render_text().endswith(
            "9 file(s) checked, 0 finding(s), 1 suppressed"
        )

    def test_syntax_error_is_reported_not_fatal(self, tmp_path):
        _write_module(tmp_path, "broken.py", "def oops(:\n")
        report = run_analysis([tmp_path], allowlist_path=NO_ALLOWLIST)
        assert len(report.errors) == 1
        assert not report.ok


class TestCli:
    def test_good_corpus_exits_zero(self, capsys):
        code = main(
            [
                str(FIXTURES / "good"),
                "--allowlist",
                str(NO_ALLOWLIST),
            ]
        )
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_bad_corpus_exits_one(self, capsys):
        code = main([str(FIXTURES / "bad"), "--allowlist", str(NO_ALLOWLIST)])
        assert code == 1
        assert "R1" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["definitely/not/here"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_json_format_and_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                str(FIXTURES / "bad"),
                "--allowlist",
                str(NO_ALLOWLIST),
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        stdout = capsys.readouterr().out
        assert json.loads(stdout) == json.loads(out.read_text())

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (f"R{n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 10)):
            assert rule_id in out
        assert "R9" not in out
