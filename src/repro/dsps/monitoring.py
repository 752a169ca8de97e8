"""Runtime samplers: periodic observation of a running platform.

The paper's experiments "periodically query Streams about the current
status of all the PEs and log this information" (Sec. 5.2). These
samplers are that logging loop for the simulator: per-second (or any
interval) time series of cluster CPU utilisation, per-replica queue
lengths, and replica activation states. Figure drivers and diagnostics
attach them to a platform before ``run()`` and read the plain lists
each sampler exposes.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.deployment import ReplicaId
from repro.dsps.platform import StreamPlatform
from repro.errors import SimulationError

__all__ = ["CpuSampler", "QueueSampler", "ActivationSampler"]


class _PeriodicSampler:
    """Base: samples every ``interval`` simulated seconds.

    The base owns the bookkeeping — the shared ``times`` axis and the
    per-channel value lists. Subclasses declare their output channels
    with :meth:`_channel` (after ``super().__init__``) and implement
    :meth:`_observe`, returning one value per channel in declaration
    order.
    """

    def __init__(self, platform: StreamPlatform, interval: float = 1.0):
        if interval <= 0:
            raise SimulationError(f"interval must be > 0, got {interval}")
        self._platform = platform
        self.interval = interval
        self.times: list[float] = []
        self._channels: list[list] = []
        platform.env.process(self._run())

    def _channel(self) -> list:
        """Declare one output channel; returns its plain value list,
        which the subclass exposes as its public attribute."""
        store: list = []
        self._channels.append(store)
        return store

    def _run(self):
        while True:
            yield self.interval
            self.times.append(self._platform.env.now)
            for store, value in zip(self._channels, self._observe()):
                store.append(value)

    def _observe(self) -> Sequence[float]:  # pragma: no cover - abstract
        """One value per declared channel, in declaration order."""
        raise NotImplementedError


class CpuSampler(_PeriodicSampler):
    """Cluster CPU utilisation per interval (fraction of total capacity)."""

    def __init__(self, platform: StreamPlatform, interval: float = 1.0):
        super().__init__(platform, interval)
        self._capacity = sum(
            host.capacity for host in platform.deployment.hosts
        )
        self._previous = 0.0
        self.utilization: list[float] = self._channel()

    def _observe(self) -> Sequence[float]:
        delivered = sum(
            self._platform.host_scheduler(name).cycles_delivered
            for name in self._platform.deployment.host_names
        )
        window_cycles = delivered - self._previous
        self._previous = delivered
        return [window_cycles / (self._capacity * self.interval)]


class QueueSampler(_PeriodicSampler):
    """Per-replica queue lengths (including the in-service tuple)."""

    def __init__(self, platform: StreamPlatform, interval: float = 1.0):
        super().__init__(platform, interval)
        self.samples: dict[ReplicaId, list[int]] = {
            replica_id: self._channel()
            for replica_id in platform.deployment.replicas
        }

    def _observe(self) -> Sequence[float]:
        return [
            self._platform.replica(replica_id).queue_length
            for replica_id in self.samples
        ]

    def max_backlog(self) -> int:
        """The largest queue length seen anywhere during the run."""
        return max(
            (max(series) for series in self.samples.values() if series),
            default=0,
        )

    def total_backlog_series(self) -> list[int]:
        """Summed queue length across all replicas per sample instant."""
        if not self.times:
            return []
        length = len(self.times)
        return [
            sum(series[i] for series in self.samples.values())
            for i in range(length)
        ]


class ActivationSampler(_PeriodicSampler):
    """Number of active (processable) replicas per sample instant."""

    def __init__(self, platform: StreamPlatform, interval: float = 1.0):
        super().__init__(platform, interval)
        self.active_counts: list[int] = self._channel()
        self.alive_counts: list[int] = self._channel()

    def _observe(self) -> Sequence[float]:
        active = 0
        alive = 0
        for replica_id in self._platform.deployment.replicas:
            replica = self._platform.replica(replica_id)
            if replica.alive:
                alive += 1
            if replica.processable:
                active += 1
        return [active, alive]
