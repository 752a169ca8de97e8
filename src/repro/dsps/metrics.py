"""Runtime metrics collected during a simulated run.

These mirror what the paper's experiments log by periodically querying
Streams (Sec. 5.2): per-replica CPU time, tuples received / processed /
dropped, per-second input and output rate series and configuration
switches. Failures and replica lifecycle transitions are not counted
here: the event log (``platform.telemetry.events``) is their record. The
*logical* (primary-side) counters are the basis of the measured-IC
figures: a PE's contribution to internal completeness is the number of
tuples processed by whichever replica was primary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.deployment import ReplicaId
from repro.obs.sketch import left_sum, nearest_rank_index

__all__ = [
    "TimeSeries",
    "LatencyRecorder",
    "PortCounters",
    "ReplicaMetrics",
    "NetworkMetrics",
    "RunMetrics",
    "conservation_gaps",
]


class LatencyRecorder:
    """End-to-end tuple latencies observed at one sink.

    Keeps two columns in arrival order: arrival times and latencies
    (entry ``i`` of each is one sink arrival); summaries are computed on
    demand. The sink and the batched engine append to the columns (or
    extend them by whole arrays) in place, and the SLO engine drains
    them through a cursor, so no per-sample tuple is ever built.
    Latency is the time from the *source emission* of the tuple that
    (transitively) triggered this sink arrival to the arrival itself —
    the quantity the paper's maximum-latency SLA clause (Sec. 3) bounds
    and that queueing inflates during load peaks.
    """

    def __init__(self) -> None:
        self._times: list[float] = []
        self._latencies: list[float] = []

    def record(self, time: float, latency: float) -> None:
        self._times.append(time)
        self._latencies.append(latency)

    def __len__(self) -> int:
        return len(self._latencies)

    @property
    def samples(self) -> list[tuple[float, float]]:
        """(arrival time, latency) pairs in arrival order."""
        return list(zip(self._times, self._latencies))

    @property
    def latencies(self) -> list[float]:
        return list(self._latencies)

    def mean(self) -> float:
        if not self._latencies:
            return 0.0
        return left_sum(self._latencies) / len(self._latencies)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, q in [0, 1].

        Uses the shared :func:`repro.obs.sketch.nearest_rank_index`
        definition so exact recorders and log-histogram sketches agree
        on which sample a given quantile selects.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile must be in [0, 1], got {q}")
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        return ordered[nearest_rank_index(q, len(ordered))]

    def sample_buffer(self) -> tuple[list[float], list[float]]:
        """The *live* (arrival times, latencies) columns, no copy.

        For the writers (the sink, the batched engine) and streaming
        consumers (the SLO engine) that keep their own cursor into the
        columns; everyone else should use :attr:`samples`, which copies.
        """
        return self._times, self._latencies

    def max(self) -> float:
        if not self._latencies:
            return 0.0
        return max(self._latencies)

    def summary(self) -> dict[str, float | int | None]:
        """All headline statistics as one dict.

        A sink that never fires yields an *explicit empty summary* —
        ``count=0`` with None statistics — rather than an exception or
        misleading zeros, so report code can render "no samples" without
        special-casing.
        """
        if not self._latencies:
            return {
                "count": 0, "mean": None, "p50": None,
                "p95": None, "max": None,
            }
        return {
            "count": len(self._latencies),
            "mean": self.mean(),
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "max": self.max(),
        }


class TimeSeries:
    """Per-second event counts over the run (a compact rate timeline)."""

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}

    def record(self, time: float, count: int = 1) -> None:
        bucket = int(time)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + count

    def rate_at(self, second: int) -> int:
        return self._buckets.get(second, 0)

    def bucket_map(self) -> dict[int, int]:
        """The live second -> count dict, no copy (streaming consumers)."""
        return self._buckets

    def mean_rate(self, start: float, end: float) -> float:
        """Average events/second over [start, end)."""
        if end <= start:
            return 0.0
        total = sum(
            count
            for second, count in self._buckets.items()
            if start <= second < end
        )
        return total / (end - start)


@dataclass
class PortCounters:
    """Per-input-port counters (the raw material of operator profiling)."""

    received: int = 0
    processed: int = 0
    emitted: int = 0
    dropped: int = 0
    busy_time: float = 0.0


@dataclass
class ReplicaMetrics:
    """Counters for one deployed PE replica.

    ``lost`` counts tuples that had been accepted into the queue (so they
    are part of ``received``) but were discarded by a crash or
    deactivation before processing — the quantity that closes the
    per-replica conservation law evaluated by :func:`conservation_gaps`:
    ``received == processed + dropped + lost + queue_length``.
    """

    busy_time: float = 0.0
    received: int = 0
    processed: int = 0
    dropped: int = 0
    lost: int = 0
    processed_as_primary: int = 0
    dropped_as_primary: int = 0
    ports: dict[str, PortCounters] = field(default_factory=dict)

    def port(self, name: str) -> PortCounters:
        return self.ports.setdefault(name, PortCounters())


#: Where a tuple a replica received can end up (``queued`` is the queue
#: length at the horizon; in-flight work counts as queued).
_ACCOUNTED = ("processed", "dropped", "lost", "queued")


def conservation_gaps(
    table: Mapping[str, Mapping[str, int]],
) -> list[tuple[str, str]]:
    """Replicas breaking ``received == processed + dropped + lost + queued``.

    ``table`` is :meth:`StreamPlatform.conservation`'s (or the same
    table read back from a run digest); the result pairs each offending
    replica with the evidence, in replica order.
    """
    gaps = []
    for replica, counters in sorted(table.items()):
        received = counters["received"]
        accounted = sum(counters[key] for key in _ACCOUNTED)
        if received != accounted:
            terms = " + ".join(f"{key} {counters[key]}" for key in _ACCOUNTED)
            evidence = f"received {received} != {terms} = {accounted}"
            gaps.append((replica, evidence))
    return gaps


@dataclass
class NetworkMetrics:
    """Cluster-network accounting (tuples moved between hosts).

    The paper models cluster-local bandwidth as an abundant resource
    (Sec. 4.4); these counters make the actual usage visible: PE -> PE
    transfers split by whether sender and receiver share a host, and the
    failure detector's heartbeat messages (which emit no event, so this
    counter is their only record).
    """

    intra_host_tuples: int = 0
    inter_host_tuples: int = 0
    heartbeat_messages: int = 0


@dataclass
class RunMetrics:
    """Everything one simulated run reports."""

    replicas: dict[ReplicaId, ReplicaMetrics] = field(default_factory=dict)
    network: NetworkMetrics = field(default_factory=NetworkMetrics)
    source_emitted: dict[str, int] = field(default_factory=dict)
    sink_received: dict[str, int] = field(default_factory=dict)
    source_series: dict[str, TimeSeries] = field(default_factory=dict)
    sink_series: dict[str, TimeSeries] = field(default_factory=dict)
    sink_latency: dict[str, LatencyRecorder] = field(default_factory=dict)
    config_switches: list[tuple[float, int]] = field(default_factory=list)

    def replica(self, replica_id: ReplicaId) -> ReplicaMetrics:
        return self.replicas.setdefault(replica_id, ReplicaMetrics())

    # ------------------------------------------------------------------
    # Aggregates used by the figures
    # ------------------------------------------------------------------

    @property
    def total_cpu_time(self) -> float:
        """Total CPU seconds consumed by all replicas (Fig. 9 top)."""
        return sum(m.busy_time for m in self.replicas.values())

    @property
    def total_lost(self) -> int:
        """Tuples discarded by crashes/deactivations after being queued."""
        return sum(m.lost for m in self.replicas.values())

    @property
    def logical_dropped(self) -> int:
        """Drops at primary replicas only (Fig. 9 bottom).

        Counting at primaries keeps the figure comparable across
        replication factors: a secondary dropping a tuple the primary
        processed does not lose application data.
        """
        return sum(m.dropped_as_primary for m in self.replicas.values())

    @property
    def tuples_processed(self) -> int:
        """Logical tuples processed by the application's PEs.

        This is the measured counterpart of FIC (Fig. 11): tuples
        processed by whichever replica was primary at the time.
        """
        return sum(m.processed_as_primary for m in self.replicas.values())

    @property
    def total_output(self) -> int:
        return sum(self.sink_received.values())

    @property
    def total_input(self) -> int:
        return sum(self.source_emitted.values())

    def output_rate_in_window(self, start: float, end: float) -> float:
        """Mean sink output rate over a window (Fig. 10's peak windows)."""
        return sum(
            series.mean_rate(start, end)
            for series in self.sink_series.values()
        )

    def mean_latency(self) -> float:
        """Mean end-to-end latency over all sinks (seconds)."""
        total = 0.0
        count = 0
        for recorder in self.sink_latency.values():
            total += left_sum(recorder.latencies)
            count += len(recorder)
        return total / count if count else 0.0

    def latency_percentile(self, q: float) -> float:
        """A cross-sink latency percentile (seconds)."""
        samples: list[float] = []
        for recorder in self.sink_latency.values():
            samples.extend(recorder.latencies)
        if not samples:
            return 0.0
        samples.sort()
        return samples[nearest_rank_index(q, len(samples))]

    def mean_latency_in_window(self, start: float, end: float) -> float:
        totals = []
        for recorder in self.sink_latency.values():
            totals.extend(
                latency
                for time, latency in recorder.samples
                if start <= time < end
            )
        return left_sum(totals) / len(totals) if totals else 0.0
