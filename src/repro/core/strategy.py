"""Replica activation strategies: the function ``s`` of Eq. 4.

A strategy maps every (replica, input configuration) pair to an active /
inactive state. Strategies are the output of FT-Search and the baselines,
the input of the cost and IC models, and — serialised to JSON — the
configuration file the HAController loads at startup (Sec. 5.1).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.core.deployment import ReplicaId, ReplicatedDeployment
from repro.errors import StrategyError

__all__ = ["ActivationStrategy"]


class ActivationStrategy:
    """An immutable activation table ``s : P-tilde x C -> {0, 1}``.

    Parameters
    ----------
    deployment:
        The replicated deployment the strategy applies to; fixes the set of
        replicas and the number of configurations.
    activations:
        Maps ``(ReplicaId, config_index)`` to a boolean. Missing entries
        default to ``False`` (inactive).
    require_one_active:
        When true (the default), enforce Eq. 12: at least one replica of
        every PE must be active in every configuration. The paper requires
        this so that measured IC is one in absence of failures; it can be
        disabled to represent degraded states in tests.
    name:
        A label used in reports ("L.5", "SR", ...).
    """

    def __init__(
        self,
        deployment: ReplicatedDeployment,
        activations: Mapping[tuple[ReplicaId, int], bool],
        require_one_active: bool = True,
        name: str = "strategy",
    ) -> None:
        self._deployment = deployment
        self._name = name
        n_configs = len(deployment.descriptor.configuration_space)
        replicas = set(deployment.replicas)

        table: dict[tuple[ReplicaId, int], bool] = {}
        for (replica, config_index), state in activations.items():
            if replica not in replicas:
                raise StrategyError(f"unknown replica {replica}")
            if not 0 <= config_index < n_configs:
                raise StrategyError(
                    f"configuration index {config_index} out of range"
                    f" (space has {n_configs})"
                )
            table[(replica, config_index)] = bool(state)
        # deployment.replicas is an ordered tuple; iterating the
        # membership *set* here would make the table's insertion order
        # (and anything serialized from it) hash-seed-dependent.
        for replica in deployment.replicas:
            for config_index in range(n_configs):
                table.setdefault((replica, config_index), False)
        self._table = table

        if require_one_active:
            for pe in deployment.descriptor.graph.pes:
                for config_index in range(n_configs):
                    if self.active_count(pe, config_index) < 1:
                        raise StrategyError(
                            f"Eq. 12 violated: no active replica of {pe!r}"
                            f" in configuration {config_index}"
                        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def all_active(
        cls, deployment: ReplicatedDeployment, name: str = "SR"
    ) -> "ActivationStrategy":
        """Static active replication: every replica active everywhere."""
        n_configs = len(deployment.descriptor.configuration_space)
        activations = {
            (replica, c): True
            for replica in deployment.replicas
            for c in range(n_configs)
        }
        return cls(deployment, activations, name=name)

    @classmethod
    def single_replica(
        cls,
        deployment: ReplicatedDeployment,
        chosen: Mapping[str, int],
        name: str = "NR",
    ) -> "ActivationStrategy":
        """Exactly one replica of each PE active in every configuration.

        ``chosen`` maps each PE to the replica index that stays active.
        """
        n_configs = len(deployment.descriptor.configuration_space)
        activations: dict[tuple[ReplicaId, int], bool] = {}
        for pe in deployment.descriptor.graph.pes:
            if pe not in chosen:
                raise StrategyError(f"no chosen replica for PE {pe!r}")
            survivor = chosen[pe]
            for replica in deployment.replicas_of(pe):
                for c in range(n_configs):
                    activations[(replica, c)] = replica.replica == survivor
        return cls(deployment, activations, name=name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def deployment(self) -> ReplicatedDeployment:
        return self._deployment

    def is_active(self, replica: ReplicaId, config_index: int) -> bool:
        """s(x-tilde, c)."""
        try:
            return self._table[(replica, config_index)]
        except KeyError:
            raise StrategyError(
                f"no entry for {replica} in configuration {config_index}"
            ) from None

    def active_count(self, pe: str, config_index: int) -> int:
        """Number of active replicas of ``pe`` in configuration ``c``."""
        return sum(
            1
            for replica in self._deployment.replicas_of(pe)
            if self._table[(replica, config_index)]
        )

    def fully_replicated(self, pe: str, config_index: int) -> bool:
        """True when all k replicas of ``pe`` are active in ``c``.

        Under the pessimistic failure model (Eq. 14) this is exactly the
        condition for phi = 1.
        """
        return (
            self.active_count(pe, config_index)
            == self._deployment.replication_factor
        )

    def active_map(self, config_index: int) -> dict[ReplicaId, bool]:
        """The per-configuration activation mapping used by load queries."""
        return {
            replica: self._table[(replica, config_index)]
            for replica in self._deployment.replicas
        }

    def activations_of(self, replica: ReplicaId) -> tuple[bool, ...]:
        n_configs = len(self._deployment.descriptor.configuration_space)
        return tuple(self._table[(replica, c)] for c in range(n_configs))

    def with_name(self, name: str) -> "ActivationStrategy":
        return ActivationStrategy(
            self._deployment,
            self._table,
            require_one_active=False,
            name=name,
        )

    def replace(
        self, updates: Mapping[tuple[ReplicaId, int], bool]
    ) -> "ActivationStrategy":
        """A copy with some entries overridden (validated afresh)."""
        table = dict(self._table)
        table.update(updates)
        return ActivationStrategy(
            self._deployment, table, require_one_active=True, name=self._name
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivationStrategy):
            return NotImplemented
        return (
            self._deployment is other._deployment
            and self._table == other._table
        )

    def __hash__(self) -> int:
        return hash(frozenset(self._table.items()))

    # ------------------------------------------------------------------
    # Serialisation (the HAController JSON format of Sec. 5.1)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self._name,
            "activations": [
                {
                    "pe": replica.pe,
                    "replica": replica.replica,
                    "config": config_index,
                    "active": state,
                }
                for (replica, config_index), state in sorted(
                    self._table.items(),
                    key=lambda item: (item[0][0], item[0][1]),
                )
            ],
        }

    @classmethod
    def from_dict(
        cls,
        deployment: ReplicatedDeployment,
        payload: Mapping,
        require_one_active: bool = True,
    ) -> "ActivationStrategy":
        activations = {
            (ReplicaId(row["pe"], row["replica"]), row["config"]): row["active"]
            for row in payload["activations"]
        }
        return cls(
            deployment,
            activations,
            require_one_active=require_one_active,
            name=payload.get("name", "strategy"),
        )

    def to_json(self, path: str | Path | None = None, indent: int = 2) -> str:
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(
        cls,
        deployment: ReplicatedDeployment,
        text_or_path: str | Path,
        require_one_active: bool = True,
    ) -> "ActivationStrategy":
        text = str(text_or_path)
        try:
            path = Path(text_or_path)
            if path.exists():
                text = path.read_text()
        except OSError:  # the "path" was inline JSON too long for stat()
            pass
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StrategyError(f"invalid strategy JSON: {exc}") from exc
        return cls.from_dict(
            deployment, payload, require_one_active=require_one_active
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = sum(1 for state in self._table.values() if state)
        return (
            f"ActivationStrategy(name={self._name!r}, "
            f"active={active}/{len(self._table)})"
        )
