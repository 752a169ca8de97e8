"""The LAAR deployment workflow (Fig. 7): build an extended application.

The application preprocessor of the paper rewrites the user's dataflow so
that every operator replica is wrapped in an HAProxy, and inserts the Rate
Monitor and HAController PEs (Fig. 8). In this reproduction the HAProxy
behaviour (activation commands, primary-only forwarding, heartbeats) is
part of the simulated operator runtime, so "preprocessing" amounts to
assembling the platform with the strategy's initial activation state and
wiring the monitor to the controller — which is exactly what
:class:`ExtendedApplication` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.deployment import ReplicatedDeployment
from repro.core.strategy import ActivationStrategy
from repro.dsps.metrics import RunMetrics
from repro.dsps.platform import PlatformConfig, StreamPlatform
from repro.dsps.traces import InputTrace
from repro.errors import SimulationError
from repro.laar.hacontroller import HAController
from repro.laar.rate_monitor import RateMonitor
from repro.rtree.config_index import ConfigurationIndex

__all__ = [
    "MiddlewareConfig",
    "PAPER_MIDDLEWARE",
    "ExtendedApplication",
]


@dataclass(frozen=True)
class MiddlewareConfig:
    """Runtime parameters of the LAAR middleware layer."""

    monitor_interval: float = 1.0
    command_latency: float = 0.05
    rate_tolerance: float = 0.0
    down_confirmation: int = 1
    dynamic: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.monitor_interval < math.inf:
            raise SimulationError("monitor_interval must be finite and > 0")
        if not 0 <= self.command_latency < math.inf:
            raise SimulationError("command_latency must be finite and >= 0")
        if not 0 <= self.rate_tolerance < math.inf:
            raise SimulationError("rate_tolerance must be finite and >= 0")
        if self.down_confirmation < 1:
            raise SimulationError("down_confirmation must be >= 1")


#: What Sec. 5.2 fixes for every run: the Rate Monitor's period and the
#: configuration-matching slack with its down-switch confirmation.
PAPER_MIDDLEWARE = MiddlewareConfig(
    monitor_interval=2.0, rate_tolerance=0.25, down_confirmation=2
)


class ExtendedApplication:
    """A deployed application extended with the LAAR runtime (Fig. 8).

    Bundles the simulated platform, the HAController (initialised with the
    activation strategy), and the Rate Monitor. With ``dynamic=False`` the
    monitor is omitted and the initial configuration's activation stays in
    force — how the static SR and NR variants run. ``initial_config`` is
    the configuration matching the traces' rates at time zero.
    """

    def __init__(
        self,
        deployment: ReplicatedDeployment,
        strategy: ActivationStrategy,
        traces: Mapping[str, InputTrace],
        platform_config: PlatformConfig | None = None,
        middleware_config: MiddlewareConfig | None = None,
    ) -> None:
        self.middleware_config = middleware_config or MiddlewareConfig()
        self.strategy = strategy
        index = ConfigurationIndex(deployment.descriptor.configuration_space)
        self.initial_config = index.lookup_index(
            {source: trace.rate_at(0.0) for source, trace in traces.items()}
        )
        initial_active = strategy.active_map(self.initial_config)
        self.platform = StreamPlatform(
            deployment,
            traces,
            initial_active=initial_active,
            config=platform_config,
        )
        self.controller = HAController(
            self.platform,
            strategy,
            initial_config=self.initial_config,
            command_latency=self.middleware_config.command_latency,
            rate_tolerance=self.middleware_config.rate_tolerance,
            down_confirmation=self.middleware_config.down_confirmation,
        )
        self.monitor: Optional[RateMonitor] = None
        if self.middleware_config.dynamic:
            self.monitor = RateMonitor(
                self.platform,
                self.controller.on_rates,
                interval=self.middleware_config.monitor_interval,
            )

    def run(self, drain: float = 2.0) -> RunMetrics:
        """Run the trace plus ``drain`` seconds, then close the platform.

        The run is freed by reference counting as it ends
        (:meth:`StreamPlatform.close`): the metrics, the event log, the
        fallback tracker, the clock's counters and every replica stay
        readable, and an SLO engine attached to the platform still
        finalizes. A second call raises :class:`SimulationError`.
        """
        metrics = self.platform.run(drain=drain)
        self.platform.close()
        return metrics

