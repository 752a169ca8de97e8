"""Application descriptors: selectivities, per-tuple CPU costs, input model.

Section 3 of the paper: the *application descriptor* is a document that
summarises the computational behaviour of PEs (per-edge *selectivity* and
*per-tuple CPU cost*) and the statistical characteristics of the external
data sources (the finite rate sets and their probability distribution). The
descriptor, together with the application graph, is everything FT-Search
needs to compute a replica activation strategy off-line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.core.application import ApplicationGraph
from repro.core.configurations import ConfigurationSpace
from repro.errors import DescriptorError

if TYPE_CHECKING:
    from repro.core.rates import RateTable

__all__ = [
    "EdgeProfile",
    "ApplicationDescriptor",
]


@dataclass(frozen=True)
class EdgeProfile:
    """Per-edge behaviour of the receiving PE.

    ``selectivity`` is the paper's delta(x_j, x_i): the number of output
    tuples PE ``x_i`` produces per tuple received from ``x_j``.
    ``cpu_cost`` is gamma(x_j, x_i): CPU cycles needed, on the reference
    architecture, to process one tuple arriving over this edge.
    """

    selectivity: float
    cpu_cost: float

    def __post_init__(self) -> None:
        if self.selectivity < 0 or not math.isfinite(self.selectivity):
            raise DescriptorError(
                f"selectivity must be finite and >= 0, got {self.selectivity}"
            )
        if self.cpu_cost < 0 or not math.isfinite(self.cpu_cost):
            raise DescriptorError(
                f"cpu_cost must be finite and >= 0, got {self.cpu_cost}"
            )


class ApplicationDescriptor:
    """Graph + per-edge profiles + input configuration space.

    This is the contract document of Section 3, items (i)-(ii): the
    application structure and the statistical characterisation of its
    behaviour and inputs. It is immutable after validation, so the
    expected rates it implies are computed once: :attr:`rate_table` is
    the one :class:`~repro.core.rates.RateTable` of this descriptor,
    built on first use and shared by every reader.
    """

    def __init__(
        self,
        graph: ApplicationGraph,
        edge_profiles: Mapping[tuple[str, str], EdgeProfile],
        configuration_space: ConfigurationSpace,
        name: str = "application",
    ) -> None:
        self._graph = graph
        self._space = configuration_space
        self._name = name
        self._rate_table: Optional[RateTable] = None

        self._profiles: dict[tuple[str, str], EdgeProfile] = {}
        for (tail, head), profile in edge_profiles.items():
            if head not in graph or tail not in graph:
                raise DescriptorError(
                    f"profile given for unknown edge {tail!r} -> {head!r}"
                )
            self._profiles[(tail, head)] = profile

        # Every edge entering a PE must be profiled; edges into sinks need
        # no profile (sinks neither transform nor cost CPU in the model).
        for pe in graph.pes:
            for edge in graph.pe_input_edges(pe):
                if (edge.tail, edge.head) not in self._profiles:
                    raise DescriptorError(
                        f"missing profile for edge {edge.tail!r} -> {edge.head!r}"
                    )
        for key in self._profiles:
            tail, head = key
            if head not in graph.pes:
                raise DescriptorError(
                    f"profile for edge into non-PE component {head!r}"
                )
            if head not in graph.succ(tail):
                raise DescriptorError(
                    f"profile for non-existent edge {tail!r} -> {head!r}"
                )

        missing = [s for s in graph.sources if s not in configuration_space.sources]
        extra = [s for s in configuration_space.sources if s not in graph.sources]
        if missing or extra:
            raise DescriptorError(
                "configuration space sources do not match graph sources"
                f" (missing={missing}, extra={extra})"
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def graph(self) -> ApplicationGraph:
        return self._graph

    @property
    def configuration_space(self) -> ConfigurationSpace:
        return self._space

    @property
    def rate_table(self) -> RateTable:
        """The descriptor's one rate table (built on first use)."""
        table = self._rate_table
        if table is None:
            from repro.core.rates import RateTable

            table = self._rate_table = RateTable(self)
        return table

    def __getstate__(self) -> dict[str, Any]:
        # The rate table is derived: the receiver builds its own.
        return {**self.__dict__, "_rate_table": None}

    def selectivity(self, tail: str, head: str) -> float:
        """delta(x_j, x_i) for the edge ``tail -> head``."""
        return self._profile(tail, head).selectivity

    def cpu_cost(self, tail: str, head: str) -> float:
        """gamma(x_j, x_i) for the edge ``tail -> head``."""
        return self._profile(tail, head).cpu_cost

    def profile(self, tail: str, head: str) -> EdgeProfile:
        return self._profile(tail, head)

    def _profile(self, tail: str, head: str) -> EdgeProfile:
        try:
            return self._profiles[(tail, head)]
        except KeyError:
            raise DescriptorError(
                f"no profile for edge {tail!r} -> {head!r}"
            ) from None

    def pe_cycles_per_second(self, pe: str, config_index: int) -> float:
        """Total CPU cycles/s one replica of ``pe`` needs in a configuration.

        This is the inner term of Eq. 11 for a single replica:
        sum over input edges of gamma(x_j, x_i) * Delta(x_j, c).
        Computed here without failures (full expected rates).
        """
        return self.rate_table.replica_load(pe, config_index)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self._name,
            "graph": self._graph.to_dict(),
            "edge_profiles": [
                {
                    "tail": tail,
                    "head": head,
                    "selectivity": profile.selectivity,
                    "cpu_cost": profile.cpu_cost,
                }
                for (tail, head), profile in sorted(self._profiles.items())
            ],
            "configuration_space": self._space.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ApplicationDescriptor":
        graph = ApplicationGraph.from_dict(payload["graph"])
        profiles = {
            (row["tail"], row["head"]): EdgeProfile(
                selectivity=row["selectivity"], cpu_cost=row["cpu_cost"]
            )
            for row in payload["edge_profiles"]
        }
        space = ConfigurationSpace.from_dict(payload["configuration_space"])
        return cls(graph, profiles, space, name=payload.get("name", "application"))

    def to_json(self, path: str | Path | None = None, indent: int = 2) -> str:
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, text_or_path: str | Path) -> "ApplicationDescriptor":
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
            raise DescriptorError(f"invalid descriptor JSON: {exc}") from exc
        return cls.from_dict(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ApplicationDescriptor(name={self._name!r}, "
            f"pes={len(self._graph.pes)}, configs={len(self._space)})"
        )
