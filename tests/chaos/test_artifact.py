"""Violation artifacts: distil, write, load, replay, minimize."""

from __future__ import annotations

import json

import pytest

from repro.chaos import (
    CampaignSpec,
    Injection,
    load_artifact,
    minimize_campaign,
    replay_artifact,
    run_campaign,
    sabotage_strategy,
    violation_artifact,
    write_artifact,
)
from repro.errors import ChaosError


@pytest.fixture(scope="session")
def failing(proven, bundle_path, strategy_path, chaos_dir):
    """A sabotaged campaign spec plus its (violating) digest."""
    broken, _, _ = sabotage_strategy(proven)
    broken_path = chaos_dir / "artifact-sabotaged.json"
    broken.to_json(broken_path)
    spec = CampaignSpec(
        bundle=bundle_path,
        strategy=str(broken_path),
        seed=1,
        reference_strategy=strategy_path,
        duration=30.0,
        schedule=(
            Injection.build(
                "slow_host", at=3.0, host="host1", factor=0.6,
                duration=4.0,
            ),
            Injection.build("pessimistic", at=8.0),
            Injection.build(
                "rack_crash", at=14.0, hosts=("host2",), downtime=3.0
            ),
        ),
    )
    digest = run_campaign(spec)
    assert not digest["invariants"]["ok"]
    return spec, digest


class TestArtifactRoundtrip:
    def test_distil_write_load(self, failing, tmp_path):
        spec, digest = failing
        artifact = violation_artifact(digest, spec)
        path = write_artifact(artifact, tmp_path / "violation.json")
        loaded = load_artifact(path)
        assert loaded == artifact
        assert loaded["first_violation"]["invariant"] == "ic-bound"
        assert loaded["seed"] == spec.seed

    def test_window_brackets_the_violation(self, failing):
        spec, digest = failing
        artifact = violation_artifact(digest, spec, window=2.0)
        t0 = artifact["first_violation"]["time"]
        times = [
            json.loads(line)["t"] for line in artifact["event_window"]
        ]
        assert times, "window captured no events"
        assert all(t0 - 2.0 <= t <= t0 + 2.0 for t in times)

    def test_clean_digest_refuses_to_distil(
        self, bundle_path, strategy_path
    ):
        digest = run_campaign(
            CampaignSpec(
                bundle=bundle_path,
                strategy=strategy_path,
                seed=0,
                duration=15.0,
            )
        )
        assert digest["invariants"]["ok"]
        with pytest.raises(ChaosError, match="no invariant violations"):
            violation_artifact(digest, "unused")


class TestReplay:
    def test_replay_reproduces_the_run_byte_for_byte(
        self, failing, tmp_path
    ):
        spec, digest = failing
        path = write_artifact(
            violation_artifact(digest, spec), tmp_path / "v.json"
        )
        replayed = replay_artifact(path)
        assert replayed["jsonl"] == digest["jsonl"]
        assert (
            replayed["invariants"]["violations"]
            == digest["invariants"]["violations"]
        )

    def test_replay_accepts_a_loaded_dict(self, failing):
        spec, digest = failing
        artifact = violation_artifact(digest, spec)
        replayed = replay_artifact(artifact)
        assert replayed["jsonl"] == digest["jsonl"]


class TestLoadArtifactErrors:
    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        with pytest.raises(ChaosError, match="not JSON"):
            load_artifact(path)

    def test_missing_spec(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(ChaosError, match="no campaign spec"):
            load_artifact(path)

    def test_wrong_version(self, failing, tmp_path):
        spec, digest = failing
        artifact = violation_artifact(digest, spec)
        artifact["version"] = 99
        path = write_artifact(artifact, tmp_path / "future.json")
        with pytest.raises(ChaosError, match="version"):
            load_artifact(path)

    @pytest.mark.parametrize(
        "breakage",
        ["no first_violation", "entry without kind", "entry not an object"],
    )
    def test_malformed_artifact_names_itself(
        self, failing, tmp_path, breakage
    ):
        spec, digest = failing
        artifact = violation_artifact(digest, spec)
        if breakage == "no first_violation":
            del artifact["first_violation"]
        elif breakage == "entry without kind":
            del artifact["spec"]["schedule"][0]["kind"]
        else:
            artifact["spec"]["schedule"][0] = "pessimistic@8"
        path = write_artifact(artifact, tmp_path / "malformed.json")
        with pytest.raises(ChaosError, match="malformed.json"):
            load_artifact(path)

    def test_unknown_spec_field_rejected(self, failing, tmp_path):
        spec, digest = failing
        artifact = violation_artifact(digest, spec)
        artifact["spec"]["warp_drive"] = True
        path = write_artifact(artifact, tmp_path / "alien.json")
        with pytest.raises(ChaosError, match="unknown fields"):
            replay_artifact(path)


class TestMinimize:
    def test_minimize_drops_irrelevant_injections(self, failing):
        spec, digest = failing
        minimized, small_digest = minimize_campaign(spec, digest)
        assert len(minimized.schedule) == 1
        assert minimized.schedule[0].kind == "pessimistic"
        assert (
            small_digest["invariants"]["violations"][0]["invariant"]
            == "ic-bound"
        )

    def test_minimized_spec_still_replays(self, failing, tmp_path):
        spec, digest = failing
        minimized, small_digest = minimize_campaign(spec, digest)
        artifact = violation_artifact(small_digest, minimized)
        path = write_artifact(artifact, tmp_path / "minimal.json")
        replayed = replay_artifact(path)
        assert not replayed["invariants"]["ok"]

    def test_minimize_requires_a_violation(
        self, bundle_path, strategy_path
    ):
        spec = CampaignSpec(
            bundle=bundle_path,
            strategy=strategy_path,
            seed=0,
            duration=15.0,
        )
        with pytest.raises(ChaosError, match="nothing to minimize"):
            minimize_campaign(spec)
