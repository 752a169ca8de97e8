"""The persistent strategy store: provision once, reuse everywhere.

A provider fielding hundreds of contracts sees the same application
descriptors over and over (tenants deploy copies of the same pipeline
with the same SLA class). FT-Search is deterministic, so its result is a
pure function of the optimization problem — descriptor, host shapes,
replication factor, IC target — plus the search configuration. The
:class:`StrategyStore` memoises that function: keys are SHA-256 hashes of
the canonical JSON of those inputs, values are small JSON records
(outcome, cost, IC, node count, and the activation strategy in the
HAController JSON format of Sec. 5.1).

Records deliberately contain **no timestamps and no wall-clock figures**:
a record produced by a pool worker is byte-identical to one produced
in-process, which is what lets fleet scenarios prewarm the store in
parallel and still satisfy the bit-identity contract of
:mod:`repro.experiments.parallel`.

With a ``path`` the store is also persistent: one ``<key>.json`` file per
record, written atomically (tmp + rename) so a crashed run never leaves
a truncated record behind. Infeasible results are cached too — proving
infeasibility costs a full search-space exhaustion, and re-offering the
same impossible contract should fail fast.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Sequence

from repro.core.deployment import Host, ReplicatedDeployment
from repro.core.descriptor import ApplicationDescriptor
from repro.core.optimizer import SearchOutcome, SearchResult
from repro.core.optimizer.stats import SearchStats
from repro.core.strategy import ActivationStrategy
from repro.errors import ReproError

__all__ = [
    "StoreError",
    "StrategyStore",
    "strategy_key",
    "record_from_result",
    "result_from_record",
]


class StoreError(ReproError):
    """A malformed strategy-store record or store misuse."""


_RECORD_FIELDS = frozenset({"outcome", "best_cost", "best_ic", "nodes", "strategy"})


def _check_record(record: object, origin: str = "store record") -> None:
    """Raise :class:`StoreError` unless ``record`` has the record shape."""
    if not isinstance(record, dict):
        raise StoreError(f"{origin} is not a JSON object")
    missing = _RECORD_FIELDS - record.keys()
    if missing:
        raise StoreError(f"{origin} missing field(s) {sorted(missing)}")


def strategy_key(
    descriptor: ApplicationDescriptor,
    hosts: Sequence[Host],
    replication_factor: int,
    ic_target: float,
    signature: str = "ftsearch",
) -> str:
    """The store key for one provisioning problem.

    The key hashes everything the (deterministic) search result depends
    on: the full descriptor (graph, edge profiles, configuration space),
    the host shapes, the replication factor and the IC target, plus a
    ``signature`` string identifying the search configuration (engine,
    node limit, ...). Two contracts with equal descriptors and SLAs on
    equally-shaped hosts share a key — which is exactly the fleet reuse
    case.
    """
    payload = {
        "signature": signature,
        "descriptor": descriptor.to_dict(),
        "hosts": [
            {
                "name": host.name,
                "cores": host.cores,
                "cycles_per_core": host.cycles_per_core,
            }
            for host in hosts
        ],
        "k": replication_factor,
        "ic_target": ic_target,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def record_from_result(result: SearchResult) -> dict:
    """Serialise a search result to a store record (no wall-clock data)."""
    return {
        "outcome": result.outcome.value,
        "best_cost": result.best_cost,
        "best_ic": result.best_ic,
        "nodes": result.stats.nodes_expanded,
        "strategy": (
            None if result.strategy is None else result.strategy.to_dict()
        ),
    }


def result_from_record(
    record: dict, deployment: ReplicatedDeployment
) -> SearchResult:
    """Rehydrate a store record into a :class:`SearchResult`.

    The first/best solution fields are empty: the cached result did not
    run a search. The node counter is restored so reports can still
    attribute the original search effort.
    """
    _check_record(record)
    strategy = (
        None
        if record["strategy"] is None
        else ActivationStrategy.from_dict(deployment, record["strategy"])
    )
    return SearchResult(
        outcome=SearchOutcome(record["outcome"]),
        strategy=strategy,
        best_cost=record["best_cost"],
        best_ic=record["best_ic"],
        first_solution_cost=None,
        first_solution_nodes=None,
        best_solution_nodes=None,
        stats=SearchStats(nodes_expanded=record["nodes"]),
    )


class StrategyStore:
    """An in-memory strategy cache with optional JSON-on-disk persistence.

    Without ``path`` the store lives in memory only. With ``path`` (a
    directory, created on demand) every record is additionally written to
    ``<key>.json`` and lookups fall through to disk, so a store survives
    process restarts and can be shared between runs.
    """

    def __init__(self, path: Optional[str | Path] = None) -> None:
        self._memory: dict[str, dict] = {}
        self._path = Path(path) if path is not None else None
        if self._path is not None:
            self._path.mkdir(parents=True, exist_ok=True)
        #: Lookup counters (a disk fall-through still counts as a hit).
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The record for ``key``, or None; bumps hit/miss counters.

        A file that is not JSON or not a record raises a
        :class:`StoreError` naming it; it is neither cached nor counted.
        """
        record = self._memory.get(key)
        if record is None and self._path is not None:
            file = self._path / f"{key}.json"
            if file.exists():
                try:
                    record = json.loads(file.read_text())
                except json.JSONDecodeError as exc:
                    raise StoreError(
                        f"corrupt store record {file}: {exc.msg}"
                    ) from exc
                _check_record(record, f"store record {file}")
                self._memory[key] = record
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: dict) -> None:
        """Insert a record (atomic tmp+rename write when persistent)."""
        _check_record(record)
        self._memory[key] = record
        if self._path is not None:
            file = self._path / f"{key}.json"
            tmp = file.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(record, sort_keys=True, indent=2) + "\n"
            )
            os.replace(tmp, file)

    def merge(self, entries) -> int:
        """Insert ``(key, record)`` pairs; returns how many were new.

        Used to fold parallel prewarm results into one store; pairs are
        applied in iteration order, first write wins (all writers produce
        identical records for a key, so the choice is cosmetic).
        """
        added = 0
        for key, record in entries:
            if key not in self._memory:
                self.put(key, record)
                added += 1
        return added

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return key in self._memory or (
            self._path is not None and (self._path / f"{key}.json").exists()
        )

    def items(self) -> list[tuple[str, dict]]:
        """The in-memory records as sorted (key, record) pairs."""
        return sorted(self._memory.items())

    def stats(self) -> dict:
        return {
            "entries": len(self._memory),
            "hits": self.hits,
            "misses": self.misses,
            "persistent": self._path is not None,
        }
