"""Application bundle persistence.

A *bundle* is one JSON document holding everything a generated
application consists of — descriptor, replicated deployment, and its
rate levels. The CLI reads and writes single bundles.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.deployment import ReplicatedDeployment
from repro.core.descriptor import ApplicationDescriptor
from repro.errors import WorkloadError
from repro.workloads.generator import GeneratedApplication

__all__ = [
    "BUNDLE_FORMAT",
    "bundle_to_dict",
    "bundle_from_dict",
    "save_bundle",
    "load_bundle",
]

BUNDLE_FORMAT = "repro-application-bundle/1"


def bundle_to_dict(app: GeneratedApplication) -> dict:
    """The JSON-ready representation of one generated application."""
    return {
        "format": BUNDLE_FORMAT,
        "descriptor": app.descriptor.to_dict(),
        "deployment": app.deployment.to_dict(),
        "low_rate": app.low_rate,
        "high_rate": app.high_rate,
        "target_degree": app.target_degree,
        "seed": app.seed,
        "attempts": app.attempts,
    }


def bundle_from_dict(payload: dict) -> GeneratedApplication:
    """Rebuild a generated application from its bundle payload."""
    if payload.get("format") != BUNDLE_FORMAT:
        raise WorkloadError(
            f"not an application bundle (format={payload.get('format')!r})"
        )
    descriptor = ApplicationDescriptor.from_dict(payload["descriptor"])
    deployment = ReplicatedDeployment.from_dict(
        descriptor, payload["deployment"]
    )
    return GeneratedApplication(
        name=descriptor.name,
        descriptor=descriptor,
        deployment=deployment,
        low_rate=payload["low_rate"],
        high_rate=payload["high_rate"],
        target_degree=payload.get("target_degree", 0.0),
        seed=payload.get("seed", -1),
        attempts=payload.get("attempts", 0),
    )


def save_bundle(app: GeneratedApplication, path: str | Path) -> None:
    """Write one application bundle as indented JSON."""
    Path(path).write_text(
        json.dumps(bundle_to_dict(app), indent=2, sort_keys=True)
    )


def load_bundle(path: str | Path) -> GeneratedApplication:
    """Read one application bundle."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"invalid bundle JSON in {path}: {exc}") from exc
    return bundle_from_dict(payload)
