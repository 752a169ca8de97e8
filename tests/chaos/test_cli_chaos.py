"""The ``repro chaos`` command group end to end."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestChaosRun:
    def test_sweep_with_existing_bundle(
        self, bundle_path, strategy_path, tmp_path, capsys
    ):
        out_dir = tmp_path / "run"
        code = main(
            [
                "chaos", "run",
                "--bundle", bundle_path,
                "--strategy", strategy_path,
                "--campaigns", "3",
                "--duration", "20",
                "--jobs", "2",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out

        report = json.loads((out_dir / "report.json").read_text())
        assert report["meta"]["campaigns"] == 3
        assert len(report["campaigns"]) == 3
        assert all(
            digest["invariants"]["ok"]
            for digest in report["campaigns"]
        )
        for digest in report["campaigns"]:
            events = out_dir / f"events-{digest['seed']}.jsonl"
            assert events.exists()
            assert (
                len(events.read_text().splitlines())
                == digest["events_emitted"]
            )

    def test_sweep_generates_its_own_workload(self, tmp_path, capsys):
        out_dir = tmp_path / "auto"
        code = main(
            [
                "chaos", "run",
                "--seed", "5",
                "--campaigns", "2",
                "--pes", "3",
                "--hosts", "3",
                "--duration", "15",
                "--node-limit", "200000",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "bundle.json").exists()
        assert (out_dir / "strategy.json").exists()
        capsys.readouterr()


class TestChaosSabotage:
    @pytest.fixture(scope="class")
    def sabotage_dir(self, bundle_path, strategy_path, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("sabotage")
        code = main(
            [
                "chaos", "run",
                "--bundle", bundle_path,
                "--strategy", strategy_path,
                "--duration", "20",
                "--sabotage",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        return out_dir

    def test_sabotage_is_caught_with_artifact(
        self, sabotage_dir, capsys
    ):
        artifact = json.loads(
            (sabotage_dir / "sabotage-artifact.json").read_text()
        )
        assert artifact["first_violation"]["invariant"] == "ic-bound"
        assert len(artifact["spec"]["schedule"]) == 1

    def test_artifact_replays(self, sabotage_dir, capsys):
        code = main(
            [
                "chaos", "replay",
                str(sabotage_dir / "sabotage-artifact.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "matches" in out

    def test_minimize_is_idempotent(self, sabotage_dir, tmp_path, capsys):
        target = tmp_path / "re-minimized.json"
        code = main(
            [
                "chaos", "minimize",
                str(sabotage_dir / "sabotage-artifact.json"),
                "--out", str(target),
            ]
        )
        assert code == 0
        minimized = json.loads(target.read_text())
        assert len(minimized["spec"]["schedule"]) == 1
        assert minimized["first_violation"]["invariant"] == "ic-bound"


class TestMalformedArtifact:
    @pytest.mark.parametrize(
        ("command", "first_violation", "entry"),
        [
            # replay reads the first violation it must reproduce
            ("replay", None, {"kind": "pessimistic", "at": 1.0}),
            # minimize re-runs the schedule
            ("minimize", {"invariant": "ic-bound"}, {"at": 1.0}),
        ],
    )
    def test_exits_1_with_an_error_line(
        self,
        command,
        first_violation,
        entry,
        bundle_path,
        strategy_path,
        tmp_path,
        capsys,
    ):
        artifact = {
            "version": 1,
            "spec": {
                "bundle": bundle_path,
                "strategy": strategy_path,
                "seed": 0,
                "schedule": [entry],
            },
        }
        if first_violation is not None:
            artifact["first_violation"] = first_violation
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(artifact))
        assert main(["chaos", command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err
