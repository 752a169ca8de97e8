"""The scenario driver: one fan-out, one artifact layout, one exit code.

Every scenario is the paper's Fig. 7 workflow observed — frozen specs,
a picklable worker per spec, plain digests, named event streams plus
one JSON document, an exit code. The two halves they share live here:

* :func:`fan_out` is the one crossing of the R7 import fence: sim-path
  modules hand it a module-level worker and tasks and never import
  :mod:`repro.experiments.parallel`, so a fabric worker unpickling
  their tasks cannot re-enter the pool. :func:`run_tenants` is the
  fleet data plane on it; elasticity is the type of the params.
* :func:`deliver` names, writes and schema-validates every stream,
  writes the document, prints the report and the tenant violations and
  picks the exit code, for every CLI subcommand that runs a scenario.

Outside the sim path on purpose: it meters wall time and prints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
)

from repro.elastic.dataplane import (
    ElasticParams,
    ElasticTask,
    run_elastic_tenant,
    summarize_elastic,
)
from repro.experiments.parallel import FabricProfile, run_tasks
from repro.fleet.dataplane import (
    DataplaneParams,
    TenantTask,
    run_tenant,
    summarize_dataplane,
)
from repro.obs.validate import validate_lines

__all__ = ["deliver", "fan_out", "run_tenants", "take_streams"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def fan_out(
    worker: Callable[[_T], _R],
    tasks: Iterable[_T],
    jobs: Optional[int] = None,
    profile: Optional[FabricProfile] = None,
) -> list[_R]:
    """Run ``worker`` over ``tasks`` on the fabric, results in task
    order — bit-identical for any ``jobs`` while the worker is a pure
    function of its task (all telemetry is stamped in simulated time).
    """
    return run_tasks(worker, list(tasks), jobs=jobs, profile=profile)


def run_tenants(
    params: DataplaneParams,
    jobs: Optional[int] = None,
    profile: Optional[FabricProfile] = None,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """One fully simulated tenant run per ``params.tenants``.

    :class:`~repro.elastic.dataplane.ElasticParams` selects the elastic
    run (engine, autoscaler, meter, ``"elastic"`` summary block).
    Returns ``(summary, digests)``; ``fleet_sha256`` chains every
    tenant's event-log hash, so it is bit-identical at any ``jobs`` and
    across execution modes — live migrations, host drains and chaos
    inside open migration windows included.
    """
    tenants = range(params.tenants)
    # Two literal calls, so R10 checks each worker where it is named.
    if isinstance(params, ElasticParams):
        digests = fan_out(
            run_elastic_tenant,
            [ElasticTask(params, tenant) for tenant in tenants],
            jobs=jobs,
            profile=profile,
        )
        return summarize_elastic(digests), digests
    digests = fan_out(
        run_tenant,
        [TenantTask(params, tenant) for tenant in tenants],
        jobs=jobs,
        profile=profile,
    )
    return summarize_dataplane(digests), digests


def take_streams(
    digests: Iterable[dict[str, Any]], key: str
) -> list[tuple[Any, str]]:
    """Pop every digest's ``"jsonl"`` into a ``(digest[key], jsonl)``
    stream list — the digests left behind are document-ready."""
    return [(digest[key], digest.pop("jsonl")) for digest in digests]


def deliver(
    out_dir: Path,
    document_name: str,
    document: Mapping[str, Any],
    rendered: str,
    streams: Iterable[tuple[Any, str]] = (),
    violations: Sequence[Mapping[str, Any]] = (),
    sort_keys: bool = True,
) -> int:
    """Write a run's artifacts, print its report, return the exit code.

    Each ``(key, jsonl)`` stream lands in ``events-<key>.jsonl``
    (``events.jsonl`` for ``key=None``) and is schema-validated; the
    first one with problems ends the delivery — problems to stderr, no
    document, exit 1: an undeclared event must fail the run, not ship.
    Otherwise the document is written, ``rendered`` printed, and each
    tenant violation (a fleet summary's ``{"tenant", "violation"}``
    records) goes to stderr; any violation means exit 1.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for key, jsonl in streams:
        name = "events.jsonl" if key is None else f"events-{key}.jsonl"
        events_path = out_dir / name
        events_path.write_text(jsonl)
        problems = validate_lines(
            jsonl.splitlines(), origin=str(events_path)
        )
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
    (out_dir / document_name).write_text(
        json.dumps(document, indent=2, sort_keys=sort_keys) + "\n"
    )
    print(rendered)
    for item in violations:
        print(
            f"violation (tenant {item['tenant']}): {item['violation']}",
            file=sys.stderr,
        )
    if violations:
        return 1
    print(f"artifacts written to {out_dir}")
    return 0
