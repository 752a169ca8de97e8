"""Input configurations and their probability distribution.

Section 4.2: every data source ``x_i`` produces output at one rate among a
finite set ``R_i``; the Cartesian product ``C = R_1 x ... x R_t`` is the set
of *input configurations*, and ``P_C : C -> [0, 1]`` is the probability mass
function describing how often each configuration is active. This module
implements the configuration space, including the binning helper the paper
references ([12]) for discretising continuous rate observations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import DescriptorError

__all__ = [
    "InputConfiguration",
    "ConfigurationSpace",
    "bin_rates",
]

_PROBABILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class InputConfiguration:
    """One element of ``C``: a rate per source, plus its probability.

    ``rates`` maps source name to the rate (tuples/second) the source emits
    in this configuration. ``label`` is a human-readable tag (the paper uses
    "Low"/"High"); it is carried through to reports but never used for
    identity.
    """

    index: int
    rates: Mapping[str, float]
    probability: float
    label: str = ""

    def __post_init__(self) -> None:
        if not self.rates:
            raise DescriptorError("configuration has no source rates")
        for source, rate in self.rates.items():
            if rate < 0 or not math.isfinite(rate):
                raise DescriptorError(
                    f"rate for source {source!r} must be finite and >= 0,"
                    f" got {rate}"
                )
        if not 0.0 <= self.probability <= 1.0:
            raise DescriptorError(
                f"configuration probability must be in [0, 1],"
                f" got {self.probability}"
            )
        # Freeze the mapping so the dataclass is genuinely immutable:
        # every tenant of a descriptor shares this object.
        object.__setattr__(
            self, "rates", MappingProxyType(dict(self.rates))
        )

    def __reduce__(self) -> tuple[Any, ...]:
        # A mappingproxy does not pickle; the worker pool gets the
        # rates as a dict and freezes its own copy on arrival.
        return InputConfiguration, (
            self.index, dict(self.rates), self.probability, self.label
        )

    def rate_of(self, source: str) -> float:
        try:
            return self.rates[source]
        except KeyError:
            raise DescriptorError(
                f"configuration {self.index} has no rate for source {source!r}"
            ) from None

    def rate_vector(self, source_order: Sequence[str]) -> tuple[float, ...]:
        """Rates as a tuple following ``source_order`` (for spatial lookups)."""
        return tuple(self.rate_of(s) for s in source_order)


class ConfigurationSpace:
    """The full set ``C`` with its probability mass function ``P_C``."""

    def __init__(self, configurations: Iterable[InputConfiguration]) -> None:
        self._configurations = tuple(configurations)
        if not self._configurations:
            raise DescriptorError("configuration space is empty")
        sources = sorted(self._configurations[0].rates)
        for config in self._configurations:
            if sorted(config.rates) != sources:
                raise DescriptorError(
                    "all configurations must cover the same sources"
                )
        indexes = [c.index for c in self._configurations]
        if indexes != list(range(len(self._configurations))):
            raise DescriptorError(
                "configuration indexes must be 0..n-1 in order,"
                f" got {indexes}"
            )
        total = sum(c.probability for c in self._configurations)
        if abs(total - 1.0) > _PROBABILITY_TOLERANCE:
            raise DescriptorError(
                f"configuration probabilities must sum to 1, got {total}"
            )
        self._sources = tuple(sources)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_source_rates(
        cls,
        source_rates: Mapping[str, Sequence[tuple[float, float]]],
        labels: Mapping[str, Sequence[str]] | None = None,
    ) -> "ConfigurationSpace":
        """Build the Cartesian product ``C`` from per-source rate tables.

        ``source_rates`` maps each source name to a sequence of
        ``(rate, probability)`` pairs. Sources are assumed independent, so
        the probability of a configuration is the product of its per-source
        probabilities (this matches the paper's experimental setup, which
        uses a single external source).
        """
        if not source_rates:
            raise DescriptorError("no sources given")
        names = sorted(source_rates)
        per_source: list[list[tuple[float, float, str]]] = []
        for name in names:
            pairs = list(source_rates[name])
            if not pairs:
                raise DescriptorError(f"source {name!r} has an empty rate set")
            total = sum(p for _, p in pairs)
            if abs(total - 1.0) > _PROBABILITY_TOLERANCE:
                raise DescriptorError(
                    f"rate probabilities for source {name!r} must sum to 1,"
                    f" got {total}"
                )
            source_labels = list(labels[name]) if labels and name in labels else []
            if source_labels and len(source_labels) != len(pairs):
                raise DescriptorError(
                    f"source {name!r}: {len(source_labels)} labels for"
                    f" {len(pairs)} rates"
                )
            rows = []
            for position, (rate, probability) in enumerate(pairs):
                label = source_labels[position] if source_labels else ""
                rows.append((rate, probability, label))
            per_source.append(rows)

        configurations = []
        for index, combo in enumerate(itertools.product(*per_source)):
            rates = {name: row[0] for name, row in zip(names, combo)}
            probability = math.prod(row[1] for row in combo)
            label = "/".join(row[2] for row in combo if row[2])
            configurations.append(
                InputConfiguration(index, rates, probability, label)
            )
        return cls(configurations)

    @classmethod
    def two_level(
        cls,
        source: str,
        low_rate: float,
        high_rate: float,
        low_probability: float,
    ) -> "ConfigurationSpace":
        """The paper's experimental shape: one source, "Low" and "High"."""
        if not 0.0 < low_probability < 1.0:
            raise DescriptorError(
                f"low_probability must be in (0, 1), got {low_probability}"
            )
        if high_rate <= low_rate:
            raise DescriptorError(
                f"high rate ({high_rate}) must exceed low rate ({low_rate})"
            )
        return cls.from_source_rates(
            {source: [(low_rate, low_probability),
                      (high_rate, 1.0 - low_probability)]},
            labels={source: ["Low", "High"]},
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def sources(self) -> tuple[str, ...]:
        return self._sources

    @property
    def configurations(self) -> tuple[InputConfiguration, ...]:
        return self._configurations

    def probability(self, index: int) -> float:
        return self[index].probability

    def __len__(self) -> int:
        return len(self._configurations)

    def __iter__(self) -> Iterator[InputConfiguration]:
        return iter(self._configurations)

    def __getitem__(self, index: int) -> InputConfiguration:
        try:
            return self._configurations[index]
        except IndexError:
            raise DescriptorError(
                f"no configuration with index {index}"
                f" (space has {len(self._configurations)})"
            ) from None

    def by_label(self, label: str) -> InputConfiguration:
        for config in self._configurations:
            if config.label == label:
                return config
        raise DescriptorError(f"no configuration labelled {label!r}")

    def sorted_by_total_rate(self, descending: bool = True) -> tuple[int, ...]:
        """Configuration indexes ordered by total source rate.

        FT-Search explores the most resource-hungry configurations first
        (Sec. 4.5); this provides that ordering.
        """
        totals = [
            (sum(c.rates.values()), c.index) for c in self._configurations
        ]
        totals.sort(reverse=descending)
        return tuple(index for _, index in totals)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "configurations": [
                {
                    "index": c.index,
                    "rates": dict(c.rates),
                    "probability": c.probability,
                    "label": c.label,
                }
                for c in self._configurations
            ]
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ConfigurationSpace":
        return cls(
            InputConfiguration(
                index=row["index"],
                rates=row["rates"],
                probability=row["probability"],
                label=row.get("label", ""),
            )
            for row in payload["configurations"]
        )


def bin_rates(
    observations: Sequence[float], bins: int
) -> list[tuple[float, float]]:
    """Discretise continuous rate observations into ``bins`` levels.

    Implements the equal-width binning the paper refers to ([12]) for
    turning an example input trace into the finite rate set of a source
    descriptor. Each bin is represented by its *upper edge* — so a chosen
    configuration never underestimates the load the bin stands for — and
    the returned probability is the empirical fraction of observations that
    fell into the bin. Empty bins are dropped.

    Returns a list of ``(rate, probability)`` pairs, sorted by rate.
    """
    if bins < 1:
        raise DescriptorError(f"bins must be >= 1, got {bins}")
    if not observations:
        raise DescriptorError("no observations to bin")
    values = sorted(observations)
    if any(v < 0 or not math.isfinite(v) for v in values):
        raise DescriptorError("observations must be finite and >= 0")
    low, high = values[0], values[-1]
    if high == low:
        return [(high, 1.0)]
    width = (high - low) / bins
    counts = [0] * bins
    for value in values:
        slot = min(int((value - low) / width), bins - 1)
        counts[slot] += 1
    result = []
    for slot, count in enumerate(counts):
        if count == 0:
            continue
        upper_edge = low + (slot + 1) * width
        result.append((upper_edge, count / len(values)))
    return result
