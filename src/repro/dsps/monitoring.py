"""Runtime sampling: periodic observation of a running platform.

The paper's experiments "periodically query Streams about the current
status of all the PEs and log this information" (Sec. 5.2). The sampler
here is that logging loop for the simulator: a per-second (or any
interval) time series of cluster CPU utilisation, which Fig. 3's driver
attaches to a platform before ``run()`` and reads as plain lists.
"""

from __future__ import annotations

import math

from repro.dsps.platform import StreamPlatform
from repro.errors import SimulationError

__all__ = ["CpuSampler"]


class CpuSampler:
    """Cluster CPU utilisation per interval (fraction of total capacity).

    ``times`` holds the sample instants, ``utilization`` the fraction of
    the cluster's cycles delivered in the interval that ends at each.
    """

    def __init__(self, platform: StreamPlatform, interval: float = 1.0):
        if not 0 < interval < math.inf:
            raise SimulationError(
                f"interval must be finite and > 0, got {interval}"
            )
        self._platform = platform
        self.interval = interval
        self._capacity = sum(
            host.capacity for host in platform.deployment.hosts
        )
        self._previous = 0.0
        self.times: list[float] = []
        self.utilization: list[float] = []
        env = platform.env
        env.schedule(0.0, lambda: env.schedule(interval, self._sample))

    def _sample(self) -> None:
        env = self._platform.env
        self.times.append(env.now)
        delivered = sum(
            self._platform.host_scheduler(name).cycles_delivered
            for name in self._platform.deployment.host_names
        )
        window_cycles = delivered - self._previous
        self._previous = delivered
        self.utilization.append(
            window_cycles / (self._capacity * self.interval)
        )
        env.schedule(self.interval, self._sample)
