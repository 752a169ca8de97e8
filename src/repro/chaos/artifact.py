"""Minimized repro artifacts for invariant violations.

When a campaign breaks an invariant, the verdict alone is not
actionable: the interesting part is the smallest schedule that still
breaks it and the event-log neighbourhood of the first breach. This
module distils a failing digest into a self-contained JSON *artifact* —
the campaign spec (with its fully expanded schedule), the first violated
invariant, and a window of the canonical event stream around it — and
can replay or shrink one:

* :func:`replay_artifact` re-runs the embedded spec through the normal
  campaign runner, so a violation reported by CI reproduces locally with
  one command (``repro chaos replay``);
* :func:`minimize_campaign` greedily drops injections that are not
  needed to reproduce the *same* first-violated invariant (classic
  ddmin restricted to single drops, which is where virtually all of the
  shrinkage is for schedules of a handful of faults);
* :func:`sabotage_self_test` proves both judges can fail: it breaks a
  proven strategy, demands the catch, and leaves the minimized artifact
  (``repro chaos run --sabotage``).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Optional, Union

from repro.chaos.campaign import CampaignSpec, sabotage_strategy
from repro.chaos.injectors import Injection
from repro.core.strategy import ActivationStrategy
from repro.errors import ChaosError
from repro.workloads.corpus import load_bundle

__all__ = [
    "violation_artifact",
    "write_artifact",
    "load_artifact",
    "spec_from_dict",
    "replay_artifact",
    "minimize_campaign",
    "sabotage_self_test",
]

_ARTIFACT_VERSION = 1


def _spec_to_dict(spec: CampaignSpec) -> dict[str, Any]:
    record: dict[str, Any] = {}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if f.name == "schedule":
            value = (
                None
                if value is None
                else [injection.to_dict() for injection in value]
            )
        record[f.name] = value
    return record


def spec_from_dict(
    record: dict[str, Any], origin: str = "artifact"
) -> CampaignSpec:
    """The campaign an artifact's ``"spec"`` record pins (validated);
    every error is a :class:`~repro.errors.ChaosError` naming ``origin``."""
    known = {f.name for f in dataclasses.fields(CampaignSpec)}
    unknown = sorted(set(record) - known)
    if unknown:
        raise ChaosError(f"{origin}: spec has unknown fields {unknown}")
    payload = dict(record)
    schedule = payload.get("schedule")
    if schedule is not None:
        try:
            payload["schedule"] = tuple(
                Injection.from_dict(item) for item in schedule
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ChaosError(
                f"{origin}: schedule holds a non-injection"
                f" ({type(exc).__name__}: {exc})"
            ) from exc
    try:
        return CampaignSpec(**payload)
    except TypeError as exc:
        raise ChaosError(f"{origin}: spec is not a campaign: {exc}") from exc


def violation_artifact(
    digest: dict[str, Any],
    spec: CampaignSpec,
    window: float = 5.0,
) -> dict[str, Any]:
    """Distil a failing campaign digest into a repro artifact.

    The artifact pins the *expanded* schedule (so replaying it does not
    depend on the seed expansion staying stable across versions) and
    carries the event lines within ``window`` seconds of the first
    violation.
    """
    violations = digest.get("invariants", {}).get("violations", [])
    if not violations:
        raise ChaosError(
            "digest has no invariant violations: nothing to distil"
        )
    first = violations[0]
    pinned = dataclasses.replace(
        spec,
        schedule=tuple(
            Injection.from_dict(item) for item in digest["schedule"]
        ),
    )
    t0 = float(first["time"])
    window_lines = []
    for line in digest.get("jsonl", "").splitlines():
        record = json.loads(line)
        if t0 - window <= record["t"] <= t0 + window:
            window_lines.append(line)
    return {
        "version": _ARTIFACT_VERSION,
        "seed": spec.seed,
        "spec": _spec_to_dict(pinned),
        "first_violation": dict(first),
        "violations": [dict(v) for v in violations],
        "stats": dict(digest.get("invariants", {}).get("stats", {})),
        "event_window": window_lines,
    }


def write_artifact(
    artifact: dict[str, Any], path: Union[str, Path]
) -> Path:
    """Write one artifact as indented JSON; returns the path."""
    target = Path(path)
    target.write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    )
    return target


def load_artifact(path: Union[str, Path]) -> dict[str, Any]:
    """Read an artifact back, validating its version, shape and campaign."""
    try:
        artifact = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ChaosError(f"artifact {path} is not JSON: {exc}") from exc
    if not isinstance(artifact, dict) or "spec" not in artifact:
        raise ChaosError(f"artifact {path} has no campaign spec")
    version = artifact.get("version")
    if version != _ARTIFACT_VERSION:
        raise ChaosError(
            f"artifact {path} has version {version!r};"
            f" this build reads version {_ARTIFACT_VERSION}"
        )
    first = artifact.get("first_violation")
    if not isinstance(first, dict) or "invariant" not in first:
        raise ChaosError(f"artifact {path} has no first_violation")
    spec_from_dict(artifact["spec"], origin=f"artifact {path}")
    return artifact


def replay_artifact(
    artifact: Union[dict[str, Any], str, Path],
) -> dict[str, Any]:
    """Re-run the campaign an artifact describes; returns the digest.

    Accepts a loaded artifact dict or a path. The replay executes the
    pinned schedule, so it reproduces the original run exactly (the
    digest's ``jsonl`` is byte-identical to the failing run's).
    """
    from repro.chaos.runner import run_campaign

    if not isinstance(artifact, dict):
        artifact = load_artifact(artifact)
    return run_campaign(spec_from_dict(artifact["spec"]))


def _first_invariant(digest: dict[str, Any]) -> Optional[str]:
    violations = digest.get("invariants", {}).get("violations", [])
    return violations[0]["invariant"] if violations else None


def minimize_campaign(
    spec: CampaignSpec,
    digest: Optional[dict[str, Any]] = None,
) -> tuple[CampaignSpec, dict[str, Any]]:
    """Shrink a failing campaign to a minimal schedule (greedy ddmin).

    Drops injections one at a time (newest first — later faults are the
    likeliest bystanders) and keeps each drop that still reproduces the
    *same* first-violated invariant. Returns the minimized spec (with an
    explicit pinned schedule) and its digest. Raises
    :class:`~repro.errors.ChaosError` if the campaign does not violate
    anything to begin with.
    """
    from repro.chaos.runner import run_campaign

    if digest is None:
        digest = run_campaign(spec)
    target = _first_invariant(digest)
    if target is None:
        raise ChaosError(
            "campaign violates no invariant: nothing to minimize"
        )
    schedule = [
        Injection.from_dict(item) for item in digest["schedule"]
    ]
    best = dataclasses.replace(spec, schedule=tuple(schedule))
    best_digest = digest
    index = len(schedule) - 1
    while index >= 0 and len(schedule) > 1:
        candidate = schedule[:index] + schedule[index + 1:]
        trial_spec = dataclasses.replace(spec, schedule=tuple(candidate))
        trial = run_campaign(trial_spec)
        if _first_invariant(trial) == target:
            schedule = candidate
            best = trial_spec
            best_digest = trial
        index -= 1
    return best, best_digest


def sabotage_self_test(
    base: CampaignSpec, out_dir: Path
) -> tuple[bool, list[str]]:
    """Break ``base``'s proven strategy below its bound, run it under one
    ``pessimistic`` injection, and demand that both judges fire: the
    invariant checker and a burn-rate alert. A catch is minimized into
    ``out_dir/sabotage-artifact.json``. Returns ``(caught, verdict)``."""
    from repro.chaos.runner import run_campaign

    deployment = load_bundle(base.bundle).deployment
    broken, pe, config = sabotage_strategy(
        ActivationStrategy.from_json(deployment, base.strategy)
    )
    broken.to_json(out_dir / "sabotaged.json")
    at = max(1.0, base.duration * 0.15)
    spec = dataclasses.replace(
        base,
        strategy=str(out_dir / "sabotaged.json"),
        reference_strategy=base.strategy,
        schedule=(Injection.build("pessimistic", at=at),),
    )
    digest = run_campaign(spec)
    alerts = [a for a in digest["slo"]["alerts"] if a["state"] == "firing"]
    cell = f"deactivated ({pe}, c={config}) below the proven bound"
    if digest["invariants"]["ok"]:
        return False, [f"sabotage NOT caught: {cell} yet every invariant held"]
    if not alerts:
        return False, [
            f"sabotage NOT caught by the SLO engine: {cell} yet no"
            " burn-rate alert fired"
        ]
    mini_spec, mini_digest = minimize_campaign(spec, digest)
    artifact_path = write_artifact(
        violation_artifact(mini_digest, mini_spec),
        out_dir / "sabotage-artifact.json",
    )
    first, alert = digest["invariants"]["violations"][0], alerts[0]
    return True, [
        f"sabotage caught: ({pe}, c={config}) ->"
        f" [{first['invariant']}] at t={first['time']:.2f}s",
        f"slo alert fired: [{alert['rule']}] at window {alert['window']}"
        f" (burn fast={alert['burn_fast']:.1f}"
        f" slow={alert['burn_slow']:.1f})",
        f"minimized to {len(mini_digest['schedule'])} injection(s);"
        f" artifact written to {artifact_path}",
    ]
