"""The High Availability Controller PE (Sec. 4.6).

Initialised at startup with the chosen replica activation strategy, the
HAController receives measured source rates from the Rate Monitor and
selects the appropriate replica activation state for the current input
configuration. The configuration lookup uses the index of
:mod:`repro.rtree.config_index`, which picks the spatially-closest
configuration whose components all dominate the measured rates — so the
chosen activation never underestimates the actual load.

Whenever the selected configuration changes, the controller reliably sends
activation/deactivation commands to the affected PE replicas (commands are
delivered after ``command_latency`` seconds, modelling control-plane
messaging)."""

from __future__ import annotations

from typing import Mapping

from repro.core.deployment import ReplicaId
from repro.core.strategy import ActivationStrategy
from repro.dsps.platform import StreamPlatform
from repro.errors import SimulationError
from repro.rtree.config_index import ConfigurationIndex

__all__ = ["HAController"]


class HAController:
    """Drives replica activations from measured input rates."""

    def __init__(
        self,
        platform: StreamPlatform,
        strategy: ActivationStrategy,
        initial_config: int,
        command_latency: float = 0.05,
        rate_tolerance: float = 0.0,
        down_confirmation: int = 1,
    ) -> None:
        """``rate_tolerance`` relaxes the dominance test of the
        configuration lookup (measurement noise around a nominal rate must
        not read as a configuration change); ``down_confirmation`` requires
        that many consecutive identical selections before switching to a
        *cheaper* configuration. Switches towards heavier configurations always
        happen immediately — the never-underestimate guarantee is only
        ever relaxed by the explicit tolerance, never by hysteresis."""
        if strategy.deployment is not platform.deployment:
            raise SimulationError(
                "strategy was computed for a different deployment"
            )
        if command_latency < 0:
            raise SimulationError("command_latency must be >= 0")
        if down_confirmation < 1:
            raise SimulationError("down_confirmation must be >= 1")
        self._platform = platform
        self._strategy = strategy
        space = platform.deployment.descriptor.configuration_space
        self._index = ConfigurationIndex(
            space,
            tolerance=rate_tolerance,
            telemetry=platform.telemetry,
        )
        self._total_rate = {
            config.index: sum(config.rates.values()) for config in space
        }
        self._command_latency = command_latency
        self._down_confirmation = down_confirmation
        self._pending_down: tuple[int, int] | None = None  # (config, count)
        self.current_config = initial_config
        self.switch_log: list[tuple[float, int, int]] = []
        self.commands_sent = 0

    @property
    def strategy(self) -> ActivationStrategy:
        return self._strategy

    def on_rates(self, rates: Mapping[str, float]) -> None:
        """Rate Monitor callback: re-evaluate the input configuration."""
        selected = self._index.lookup_index(rates)
        previous = self.current_config
        switched = False
        if selected == previous:
            self._pending_down = None
        else:
            heavier = (
                self._total_rate[selected] > self._total_rate[previous]
            )
            if heavier or self._down_confirmation <= 1:
                self._pending_down = None
                self._switch_to(selected)
                switched = True
            else:
                # Down-switch hysteresis: demand consecutive confirmations.
                if self._pending_down and self._pending_down[0] == selected:
                    count = self._pending_down[1] + 1
                else:
                    count = 1
                if count >= self._down_confirmation:
                    self._pending_down = None
                    self._switch_to(selected)
                    switched = True
                else:
                    self._pending_down = (selected, count)
        self._platform.telemetry.emit(
            "sla.check",
            selected=selected,
            current=previous,
            switched=switched,
        )

    def _switch_to(self, config_index: int) -> None:
        now = self._platform.env.now
        self.switch_log.append((now, self.current_config, config_index))
        self._platform.metrics.config_switches.append((now, config_index))
        previous = self.current_config
        self.current_config = config_index
        sent_before = self.commands_sent
        for replica_id in self._platform.deployment.replicas:
            desired = self._strategy.is_active(replica_id, config_index)
            if desired == self._strategy.is_active(replica_id, previous):
                continue  # no command needed for unchanged replicas
            self._send_command(replica_id, desired)
        telemetry = self._platform.telemetry
        transition = {"from": previous, "to": config_index}
        telemetry.emit(
            "config.switch",
            commands=self.commands_sent - sent_before,
            **transition,
        )
        # Span over the decision→commands-applied window: commands land
        # after command_latency, so close the span on the same clock.
        span = telemetry.spans.begin("config.switch", **transition)
        self._platform.env.schedule(self._command_latency, span.end)

    def _send_command(self, replica_id: ReplicaId, active: bool) -> None:
        self.commands_sent += 1
        self._platform.env.schedule(
            self._command_latency,
            lambda: self._platform.set_activation(replica_id, active),
        )
