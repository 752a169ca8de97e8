"""Tests for the command-line interface (the Fig. 7 workflow)."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "app.json"
    code = main(
        [
            "generate",
            "--seed", "3",
            "--pes", "8",
            "--hosts", "3",
            "--cores-per-host", "6",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def strategy_path(bundle_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "strategy.json"
    code = main(
        [
            "optimize",
            str(bundle_path),
            "--ic", "0.4",
            "--node-limit", "200000",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_bundle_is_valid_json(self, bundle_path):
        payload = json.loads(bundle_path.read_text())
        assert payload["format"].startswith("repro-application-bundle")
        assert payload["low_rate"] < payload["high_rate"]
        assert len(payload["descriptor"]["graph"]["pes"]) == 8

    def test_generate_deterministic(self, bundle_path, tmp_path):
        other = tmp_path / "again.json"
        assert main(
            [
                "generate", "--seed", "3", "--pes", "8",
                "--hosts", "3", "--cores-per-host", "6",
                "--out", str(other),
            ]
        ) == 0
        assert json.loads(other.read_text()) == json.loads(
            bundle_path.read_text()
        )


class TestOptimize:
    def test_strategy_file_written(self, strategy_path):
        payload = json.loads(strategy_path.read_text())
        assert payload["activations"]

    def test_infeasible_target_fails(self, bundle_path, tmp_path, capsys):
        code = main(
            [
                "optimize", str(bundle_path),
                "--ic", "1.0",
                "--node-limit", "200000",
                "--out", str(tmp_path / "nope.json"),
            ]
        )
        assert code == 1
        assert "no strategy" in capsys.readouterr().err

    def test_missing_bundle_fails(self, tmp_path, capsys):
        code = main(
            [
                "optimize", str(tmp_path / "ghost.json"),
                "--ic", "0.5", "--out", str(tmp_path / "s.json"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "budget", [("--node-limit", "0"), ("--node-limit", "-5")]
    )
    def test_non_finite_budget_is_an_error(
        self, bundle_path, tmp_path, capsys, budget
    ):
        """Not a search that finds nothing on a feasible bundle."""
        code = main(
            [
                "optimize", str(bundle_path), "--ic", "0.4", *budget,
                "--out", str(tmp_path / "s.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"got {budget[1]}" in err
        assert not (tmp_path / "s.json").exists()


class TestEvaluate:
    def test_feasible_strategy_reports_zero_exit(
        self, bundle_path, strategy_path, capsys
    ):
        code = main(
            ["evaluate", str(bundle_path), "--strategy", str(strategy_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pessimistic IC" in out
        assert "satisfied" in out


class TestEvaluateVerbose:
    def test_verbose_prints_matrix_and_loads(
        self, bundle_path, strategy_path, capsys
    ):
        code = main(
            [
                "evaluate", str(bundle_path),
                "--strategy", str(strategy_path),
                "--verbose",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "activation matrix" in out
        assert "host load / capacity" in out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestLint:
    def test_list_rules_via_subcommand(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "R1" in out and "R8" in out

    def test_findings_propagate_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text('"""Doc."""\nimport time\nt = time.time()\n')
        code = main(
            [
                "lint", str(bad),
                "--allowlist", str(tmp_path / "absent.txt"),
            ]
        )
        assert code == 1
        assert "R1" in capsys.readouterr().out


class TestObs:
    def test_observed_run_writes_artifacts(
        self, bundle_path, strategy_path, tmp_path, capsys
    ):
        out_dir = tmp_path / "run"
        code = main(
            [
                "obs", str(bundle_path),
                "--strategy", str(strategy_path),
                "--duration", "10",
                "--failures", "none,worst,crash",
                "--queue-seconds", "0.05",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "switch timeline" in out
        assert "top droppers" in out

        from repro.obs.validate import validate_file

        modes = ["none", "worst", "crash"]
        for mode in modes:
            path = out_dir / f"events-{mode}.jsonl"
            assert path.exists()
            assert validate_file(path) == []
        report = json.loads((out_dir / "report.json").read_text())
        assert [m["mode"] for m in report["modes"]] == modes
        assert report["fabric"]["n_tasks"] == 3
        worst, crash = report["modes"][1:]
        assert worst["schedule"] == [
            {"kind": "pessimistic", "at": 0.0, "params": {}}
        ]
        assert crash["event_counts"].get("host.crash", 0) == 1
        assert crash["event_counts"].get("tuple.drop", 0) > 0
        assert [m["invariants"]["ok"] for m in report["modes"]] == [
            True,
            True,
            True,
        ]

    def test_violated_invariant_exits_1_after_the_artifacts(
        self, bundle_path, strategy_path, tmp_path, capsys, monkeypatch
    ):
        from repro.chaos import invariants

        def seeded(*args, **kwargs):
            return invariants.CheckResult(
                False,
                (invariants.Violation("ic-bound", 1.0, "seeded breach"),),
                {"min_ic_margin": -1.0},
            )

        monkeypatch.setattr(invariants, "check_campaign", seeded)
        out_dir = tmp_path / "run"
        code = main(
            [
                "obs", str(bundle_path),
                "--strategy", str(strategy_path),
                "--duration", "10",
                "--failures", "none",
                "--jobs", "1",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "invariants: VIOLATED" in captured.out
        assert "[ic-bound] seeded breach" in captured.out
        assert "invariant violated in mode(s) ['none']" in captured.err
        report = json.loads((out_dir / "report.json").read_text())
        assert not report["modes"][0]["invariants"]["ok"]
        assert (out_dir / "events-none.jsonl").exists()

    def test_fleet_writes_report_and_valid_events(self, tmp_path, capsys):
        out_dir = tmp_path / "fleet"
        store_dir = tmp_path / "store"
        code = main(
            [
                "fleet",
                "--tenants", "6",
                "--apps", "2",
                "--jobs", "2",
                "--out-dir", str(out_dir),
                "--store-dir", str(store_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet scenario report" in out
        assert "shared pool occupancy" in out

        from repro.obs.validate import validate_file

        events_path = out_dir / "events.jsonl"
        assert events_path.exists()
        assert validate_file(events_path) == []
        report = json.loads((out_dir / "report.json").read_text())
        assert report["admission"]["submitted"] == 6
        assert report["scenario"]["tenants"] == 6
        assert list(store_dir.glob("*.json"))  # strategies persisted

    def test_strategy_and_ic_mutually_exclusive(
        self, bundle_path, strategy_path, tmp_path, capsys
    ):
        code = main(
            [
                "obs", str(bundle_path),
                "--strategy", str(strategy_path),
                "--ic", "0.5",
                "--out-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("failures", "problem"),
        [
            ("meteor", "unknown failure mode 'meteor'"),
            (",", "no failure mode given"),
            ("none,none", "repeated failure mode"),
        ],
        ids=["unknown", "empty", "repeated"],
    )
    def test_unknown_failure_mode_rejected(
        self, bundle_path, strategy_path, tmp_path, capsys, failures, problem
    ):
        out_dir = tmp_path / "x"
        code = main(
            [
                "obs", str(bundle_path),
                "--strategy", str(strategy_path),
                "--failures", failures,
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 2
        assert problem in capsys.readouterr().err
        assert not out_dir.exists()  # refused before anything ran


class TestDataplaneOnlyFlags:
    @pytest.mark.parametrize("flag", ["--elastic", "--tuple-granular"])
    def test_rejected_without_dataplane(self, flag, tmp_path, capsys):
        out_dir = tmp_path / "fleet"
        code = main(
            ["fleet", "--tenants", "2", flag, "--out-dir", str(out_dir)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--dataplane" in err
        assert not out_dir.exists()  # rejected before anything ran


class TestObsDiffArtifacts:
    @pytest.mark.parametrize(
        "content", ['{"tenants": [{"tenant": 0, "sl', "[1, 2, 3]"]
    )
    def test_truncated_or_non_object_artifact_is_a_typed_error(
        self, content, tmp_path, capsys
    ):
        good = tmp_path / "a.json"
        good.write_text('{"tenants": []}')
        bad = tmp_path / "b.json"
        bad.write_text(content)
        code = main(["obs", "diff", str(good), str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(bad) in err

    def test_well_formed_but_wrong_artifact_names_file_and_tenant(
        self, tmp_path, capsys
    ):
        good = tmp_path / "a.json"
        good.write_text('{"tenants": []}')
        bad = tmp_path / "b.json"
        bad.write_text(
            '{"tenants": [{"tenant": "0", "slo": {"availability": 1.0}}]}'
        )
        code = main(["obs", "diff", str(good), str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: slo artifact {bad}: tenant 0 ")
        assert "bad_seconds" in err


#: One autoscaled fleet shared by the TestElastic cases: four tenants,
#: the chaos slot of tenant 0 and migrations inside eight seconds.
ELASTIC_RUN = [
    "fleet", "--dataplane", "--elastic",
    "--tenants", "4",
    "--duration", "8",
    "--jobs", "1",
]


def _run_quietly(argv: list) -> tuple[int, str]:
    """``main(argv)`` with its stdout captured (module fixtures cannot
    take ``capsys``)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def elastic_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("elastic") / "batched"
    code, out = _run_quietly([*ELASTIC_RUN, "--out-dir", str(out_dir)])
    return code, out, out_dir


class TestElastic:
    def test_fleet_elastic_flag_runs_autoscaled_dataplane(self, elastic_run):
        code, out, _ = elastic_run
        assert code == 0
        assert "elastic dataplane (batched):" in out
        assert "migrations" in out
        assert "fleet sha256:" in out
        assert "slo verdicts:" in out

    def test_elastic_writes_artifact_and_valid_events(self, elastic_run):
        from repro.obs.validate import validate_file

        _, _, out_dir = elastic_run
        document = json.loads((out_dir / "dataplane.json").read_text())
        assert sorted(document) == ["fleet", "params", "tenants"]
        assert document["fleet"]["ok"] is True
        assert document["fleet"]["elastic"]["migrations"] > 0
        assert len(document["tenants"]) == 4
        for entry in document["tenants"]:
            assert "jsonl" not in entry
            assert entry["slo"]["n_windows"] > 0
            path = out_dir / f"events-{entry['tenant']}.jsonl"
            assert validate_file(path) == []
        assert len(list(out_dir.glob("events-*.jsonl"))) == 4

    def test_elastic_batched_and_tuple_granular_agree(
        self, elastic_run, tmp_path
    ):
        _, _, batched = elastic_run
        out_dir = tmp_path / "tuple-granular"
        code, _ = _run_quietly(
            [*ELASTIC_RUN, "--tuple-granular", "--out-dir", str(out_dir)]
        )
        assert code == 0
        shas = [
            json.loads((path / "dataplane.json").read_text())["fleet"][
                "fleet_sha256"
            ]
            for path in (batched, out_dir)
        ]
        assert shas[0] == shas[1]
        for events in sorted(batched.glob("events-*.jsonl")):
            assert (out_dir / events.name).read_bytes() == (
                events.read_bytes()
            )


class TestObsDiffRoundTrip:
    def test_two_dataplane_runs_diff_by_tenant(self, tmp_path, capsys):
        documents = []
        for seed in ("7", "11"):
            out_dir = tmp_path / f"seed-{seed}"
            code = main(
                [
                    "fleet", "--dataplane",
                    "--tenants", "2",
                    "--duration", "8",
                    "--seed", seed,
                    "--jobs", "1",
                    "--out-dir", str(out_dir),
                ]
            )
            assert code == 0
            documents.append(str(out_dir / "dataplane.json"))
        capsys.readouterr()
        assert main(["obs", "diff", *documents]) == 0
        out = capsys.readouterr().out
        assert "tenants: 2 aligned" in out
        movers = out.split("-- top movers --\n")[1].splitlines()[1:]
        assert sorted(row.split()[0] for row in movers) == ["0", "1"]


class TestRemovedCommands:
    @pytest.mark.parametrize("command", ["slo", "elastic"])
    def test_folded_into_fleet_dataplane(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
