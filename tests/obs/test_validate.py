"""The JSONL event-schema validator and its CLI entry point."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.obs.events import EventLog
from repro.obs.validate import main, validate_file, validate_lines


def _clean_lines() -> list[str]:
    log = EventLog()
    log.emit("host.crash", host="h0")
    log.emit("host.recover", host="h0")
    return log.to_jsonl().splitlines()


class TestValidateLines:
    def test_clean_stream_has_no_problems(self):
        assert validate_lines(_clean_lines()) == []

    def test_blank_lines_ignored(self):
        assert validate_lines(["", *_clean_lines(), "   "]) == []

    def test_unknown_event_type_reported(self):
        problems = validate_lines(
            ['{"seq":0,"t":0.0,"type":"bogus.event"}']
        )
        assert len(problems) == 1
        assert "unknown event type" in problems[0]

    def test_missing_required_field_reported(self):
        problems = validate_lines(
            ['{"seq":0,"t":0.0,"type":"tuple.drop","replica":"r"}']
        )
        assert len(problems) == 1
        assert "missing field" in problems[0]
        assert "port" in problems[0] and "primary" in problems[0]

    def test_missing_core_fields_reported(self):
        problems = validate_lines(['{"type":"host.crash","host":"h0"}'])
        assert len(problems) == 1
        assert "seq" in problems[0] and "t" in problems[0]

    def test_non_json_reported_with_line_number(self):
        problems = validate_lines(["not json"], origin="f.jsonl")
        assert problems[0].startswith("f.jsonl:1:")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constants_reported(self, token):
        """``json.loads`` accepts these three tokens; JSON does not."""
        problems = validate_lines(
            ['{"seq":0,"t":0.0,"type":"config.fallback","config":1,'
             f'"rates":{{"src":{token}}}}}']
        )
        assert len(problems) == 1
        assert "not valid JSON" in problems[0] and token in problems[0]

    def test_non_increasing_seq_reported(self):
        lines = [
            '{"seq":1,"t":0.0,"type":"host.crash","host":"h0"}',
            '{"seq":1,"t":0.0,"type":"host.crash","host":"h1"}',
        ]
        problems = validate_lines(lines)
        assert len(problems) == 1
        assert "strictly increasing" in problems[0]


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(_clean_lines()) + "\n")
        assert main([str(path)]) == 0
        assert validate_file(path) == []
        assert "OK (2 events)" in capsys.readouterr().out

    def test_problem_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq":0,"t":0.0,"type":"nope"}\n')
        assert main([str(path)]) == 1
        assert "unknown event type" in capsys.readouterr().out

    def test_missing_file_exits_one(self, tmp_path):
        assert main([str(tmp_path / "absent.jsonl")]) == 1

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out


class TestModuleEntryPoint:
    """``python -m repro.obs.validate`` as CI invokes it.

    The in-process tests above pin ``main()``'s return values; these pin
    that the module entry point actually turns them into process exit
    codes (``raise SystemExit(main())``), so a wiring regression can't
    make CI silently pass on bad streams.
    """

    @staticmethod
    def _run(*args: str) -> subprocess.CompletedProcess[str]:
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            "src",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_unknown_event_type_exits_nonzero(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq":0,"t":0.0,"type":"bogus.event"}\n')
        result = self._run(str(path))
        assert result.returncode == 1
        assert "unknown event type" in result.stdout

    def test_clean_stream_exits_zero(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text(
            '{"seq":0,"t":0.0,"type":"host.crash","host":"h0"}\n'
        )
        result = self._run(str(path))
        assert result.returncode == 0, result.stdout + result.stderr
