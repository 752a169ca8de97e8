"""Streaming SLO engine: windowed rollups, error budgets, burn alerts.

The paper's premise is that fault-tolerance contracts (the IC-SLA) are
something tenants buy — so the platform must *demonstrably* honor them.
This module is the verdict layer: a :class:`SloEngine` subscribes to the
:class:`~repro.obs.events.EventLog` emit path (via ``add_tap``; no
post-hoc log replay, so it survives ring eviction) and maintains
per-tenant sim-time-windowed rollups:

* **availability** — the fraction of sim-time during which the realized
  service met its contract, judged by a pluggable availability tracker
  (:class:`FloorAvailability` holds the run to the FT-Search-proven
  pessimistic FIC floor, reading the same :class:`~repro.obs.replay.
  FloorWalker` intervals as the chaos invariant checker;
  :class:`CoverageAvailability` holds strategy-less data-plane runs to a
  PE-coverage completeness target);
* **latency percentiles** — each window cuts the sink recorders' live
  (arrival time, latency) columns at its bound with a per-sink cursor
  (``bisect_left`` on the times) and summarises the slice of latencies
  with :func:`~repro.obs.sketch.sorted_summary`: one sort, a left-fold
  sum, the same buckets a :class:`~repro.obs.sketch.LogHistogram` fed
  the samples one by one would report, and no copy kept here; the
  run-level summary sorts the drained prefixes once, in
  :meth:`SloEngine.summary`;
* **loss and throughput** — drops/overflows from tapped events, input
  and output tuple counts from the per-second rate series;
* **failover durations** — a run-level sketch over finished failover
  spans.

On top of the rollups sit per-tenant error budgets and a classic
multi-window burn-rate alert rule: an alert fires when both the fast
burn (the most recent ``fast_windows`` windows) and the slow burn (the
last ``slow_windows`` windows) consume budget at ``burn_threshold``
times the sustainable rate. Alerts are edge-triggered
(``firing``/``resolved``) and emitted as first-class ``slo.alert``
events; every closed window emits ``slo.window`` and :meth:`SloEngine.
finalize` emits the run's ``slo.budget`` verdict.

Determinism: everything is keyed off the tapped event stream and the
platform's own metric buffers, both of which are byte-identical across
worker counts and engine modes — so the emitted ``slo.*`` events are
too. Windows close lazily when an event at or past the window boundary
arrives (the ``slo.window`` event is *stamped* at that trigger time but
carries its true ``start``/``end`` bounds); the final partial window
closes in :meth:`SloEngine.finalize`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.core.deployment import ReplicaId, ReplicatedDeployment
from repro.core.strategy import ActivationStrategy
from repro.errors import ReproError
from repro.obs.events import Event, EventLog
from repro.obs.replay import CHECKED, EPS, STATE_EVENTS, FloorWalker
from repro.obs.replay import DeploymentState
from repro.obs.sketch import LogHistogram, left_sum, sorted_summary

if TYPE_CHECKING:
    from repro.dsps.platform import StreamPlatform

__all__ = [
    "SloConfig",
    "AvailabilityTracker",
    "CoverageAvailability",
    "FloorAvailability",
    "SloEngine",
    "attach_slo",
]

#: Phase-attribution markers (see SloEngine._close_window).
_FAILURE_EVENTS = frozenset({"replica.crash", "host.crash", "host.degrade"})
_REPLAN_EVENTS = frozenset({"config.switch", "fleet.replan"})
_DROP_EVENTS = frozenset({"tuple.drop", "queue.overflow"})
#: Events that attribute a window to the ``migration`` phase (below
#: failover/failure, above replan) and track open migration windows.
_MIGRATION_EVENTS = frozenset(
    {
        "migration.start",
        "migration.transfer",
        "migration.cutover",
        "migration.done",
        "migration.abort",
        "host.cordon",
        "host.drain",
        "host.reclaim",
    }
)


@dataclass(frozen=True)
class SloConfig:
    """One tenant's SLO: rollup window, objective, alert rule.

    ``window`` must be a whole number of simulated seconds so window
    bounds align with the per-second rate-series buckets.
    """

    window: float = 5.0
    availability_target: float = 0.999
    burn_threshold: float = 1.0
    fast_windows: int = 1
    slow_windows: int = 6

    def __post_init__(self) -> None:
        window = self.window
        if not 1.0 <= window < math.inf or window != int(window):
            raise ReproError(
                f"window must be a whole number of seconds >= 1,"
                f" got {self.window}"
            )
        if not 0.0 < self.availability_target < 1.0:
            raise ReproError(
                f"availability_target must be in (0, 1),"
                f" got {self.availability_target}"
            )
        if not 0.0 < self.burn_threshold < math.inf:
            raise ReproError(
                f"burn_threshold must be finite and > 0,"
                f" got {self.burn_threshold}"
            )
        if self.fast_windows < 1 or self.slow_windows < self.fast_windows:
            raise ReproError(
                f"need 1 <= fast_windows <= slow_windows, got"
                f" {self.fast_windows}/{self.slow_windows}"
            )


class AvailabilityTracker:
    """Base streaming availability judge.

    Subclasses decide, after every liveness/config event, whether the
    service is currently *bad* (out of contract), or accrue bad-time
    themselves in ``_accrue``; the base class turns the flag into
    accrued bad-time that :class:`SloEngine` drains once per window via
    :meth:`take`.
    """

    def __init__(self) -> None:
        self._bad = False
        self._bad_seconds = 0.0
        self._last = 0.0

    def _accrue(self, until: float) -> None:
        last = self._last
        if until <= last:
            return
        self._last = until
        if self._bad:
            self._bad_seconds += until - last

    def _evaluate(self) -> bool:
        return False

    def _apply(self, time: float, type_: str, fields: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def on_event(self, time: float, type_: str, fields: Mapping[str, Any]) -> None:
        if type_ not in STATE_EVENTS:
            return
        self._accrue(time)
        self._apply(time, type_, fields)
        self._bad = self._evaluate()

    def take(self, until: float) -> float:
        """Bad seconds accrued up to ``until`` since the last take."""
        self._accrue(until)
        taken = self._bad_seconds
        self._bad_seconds = 0.0
        return taken

    def degraded(self) -> bool:
        """Any replica currently dead (for phase attribution)."""
        return False


class CoverageAvailability(AvailabilityTracker):
    """Completeness-vs-contract availability for strategy-less runs.

    The run is *bad* while the fraction of PEs with at least one
    alive-and-active replica is below ``ic_target`` — the data-plane
    reading of the IC contract, used where no FT-Search strategy object
    exists in the worker (the 10k-tenant dataplane).
    """

    def __init__(
        self,
        deployment: ReplicatedDeployment,
        ic_target: float = 1.0,
        initial_active: Optional[Mapping[ReplicaId, bool]] = None,
    ) -> None:
        super().__init__()
        self._state = DeploymentState(deployment, initial_active)
        self._n_pes = len(self._state.by_pe)
        self._ic_target = ic_target

    def _apply(self, time: float, type_: str, fields: Mapping[str, Any]) -> None:
        self._state.apply(time, type_, fields)

    def _evaluate(self) -> bool:
        if self._n_pes == 0:
            return False
        covered = self._state.covered_count() / self._n_pes
        return covered < self._ic_target - EPS

    def degraded(self) -> bool:
        return self._state.degraded()


class FloorAvailability(AvailabilityTracker):
    """IC-floor availability: the chaos checker's bound, streamed.

    The run is *bad* for every ``checked`` second of the
    :class:`~repro.obs.replay.FloorWalker` whose margin is below
    ``-EPS``; ``transition`` and ``off-model`` seconds burn nothing.
    :func:`repro.chaos.invariants.check_campaign` reads the same walker.
    """

    def __init__(
        self,
        deployment: ReplicatedDeployment,
        run_strategy: ActivationStrategy,
        reference_strategy: Optional[ActivationStrategy] = None,
        initial_config: int = 0,
        command_latency: float = 0.0,
    ) -> None:
        super().__init__()
        self._walker = FloorWalker(
            deployment,
            run_strategy,
            reference_strategy or run_strategy,
            initial_config,
            command_latency,
        )

    def _accrue(self, until: float) -> None:
        for start, end, label, margin in self._walker.advance(until):
            if label == CHECKED and margin < -EPS:
                self._bad_seconds += end - start

    def _apply(self, time: float, type_: str, fields: Mapping[str, Any]) -> None:
        self._walker.state.apply(time, type_, fields)

    def degraded(self) -> bool:
        return self._walker.state.degraded()


class SloEngine:
    """Per-tenant streaming rollups, error budget, and burn alerts.

    Subscribe with ``events.add_tap(engine.on_event)`` (or use
    :func:`attach_slo`), run the simulation, then call
    :meth:`finalize` with the run horizon before reading
    :meth:`summary`. The engine ignores its own ``slo.*`` emissions,
    so tapping the log it emits into is safe.
    """

    def __init__(
        self,
        events: EventLog,
        availability: AvailabilityTracker,
        config: Optional[SloConfig] = None,
        *,
        tenant: str = "-",
        latency: Optional[
            list[tuple[str, tuple[list[float], list[float]]]]
        ] = None,
        output_buckets: Optional[list[dict[int, int]]] = None,
        input_buckets: Optional[list[dict[int, int]]] = None,
    ) -> None:
        self._events = events
        self._availability = availability
        self._config = config or SloConfig()
        self._tenant = tenant
        self._latency = latency or []
        self._window_len = self._config.window
        self._cursors = [0] * len(self._latency)
        self._output_buckets = output_buckets or []
        self._input_buckets = input_buckets or []
        # Current-window state.
        self._window_index = 0
        self._window_start = 0.0
        self._window_drops = 0
        self._window_failovers = 0
        self._window_failover_end = False
        self._window_failures = False
        self._window_replans = False
        self._window_migrations = False
        self._open_failovers = 0
        self._open_migrations = 0
        # Run-level accumulators.
        self._bad_history: list[float] = []
        self._alert_on = False
        self._alerts: list[dict[str, Any]] = []
        self._windows: list[dict[str, Any]] = []
        self._bad_total = 0.0
        self._drops_total = 0
        self._input_total = 0
        self._output_total = 0
        self._latency_sum = 0.0  # the window sums, folded in order
        self._failover_hist = LogHistogram()
        self._horizon = 0.0
        self._verdict = "met"
        self._trusted = True
        self._finalized = False

    # ------------------------------------------------------------------
    # Ingestion (called from the EventLog tap — the hot path)
    # ------------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        # Hot path: one set-membership test decides each event's fate,
        # most frequent type (drops) first, and the availability tracker
        # is only entered for the state events it actually consumes.
        type_ = event.type
        if type_.startswith("slo."):
            return
        time = event.time
        window = self._window_len
        while time >= self._window_start + window:
            self._close_window(self._window_start + window)
        if type_ in _DROP_EVENTS:
            self._window_drops += 1
            return
        if type_ in STATE_EVENTS:
            self._availability.on_event(time, type_, event.fields)
            if type_ in _FAILURE_EVENTS:
                self._window_failures = True
            elif type_ in _REPLAN_EVENTS:
                self._window_replans = True
            elif type_ in _MIGRATION_EVENTS:
                self._note_migration(type_)
        elif type_ == "span.start":
            if event.fields.get("name") == "failover":
                self._window_failovers += 1
                self._open_failovers += 1
        elif type_ == "span.end":
            fields = event.fields
            if fields.get("name") == "failover":
                self._open_failovers -= 1
                self._window_failover_end = True
                self._failover_hist.add(float(fields["duration"]))
        elif type_ in _FAILURE_EVENTS:
            self._window_failures = True
        elif type_ in _REPLAN_EVENTS:
            self._window_replans = True
        elif type_ in _MIGRATION_EVENTS:
            self._note_migration(type_)

    def _note_migration(self, type_: str) -> None:
        self._window_migrations = True
        if type_ == "migration.start":
            self._open_migrations += 1
        elif type_ in ("migration.done", "migration.abort"):
            self._open_migrations = max(0, self._open_migrations - 1)

    # ------------------------------------------------------------------
    # Window rollup
    # ------------------------------------------------------------------

    def _close_window(self, end: float) -> None:
        start = self._window_start
        span = end - start
        bad = self._availability.take(end)
        availability = 1.0 - bad / span

        # Latency: cut each sink's live columns at the window bound
        # through a per-sink cursor (strict < end, so the boundary
        # sample lands in the next window in every mode; the times are
        # non-decreasing) and summarise the slice in drain order.
        cursors = self._cursors
        drained: list[float] = []
        for i, (_, (times, latencies)) in enumerate(self._latency):
            j = cursors[i]
            k = bisect_left(times, end, j)
            if k > j:
                drained += latencies[j:k]
                cursors[i] = k
        total = left_sum(drained)
        self._latency_sum += total

        # Throughput: per-second series buckets fully inside [start, end).
        lo = int(start)
        hi = int(math.ceil(end))
        output = 0
        for buckets in self._output_buckets:
            for second in range(lo, hi):
                output += buckets.get(second, 0)
        inflow = 0
        for buckets in self._input_buckets:
            for second in range(lo, hi):
                inflow += buckets.get(second, 0)

        # Phase attribution, most disruptive first. A window counts as
        # "failover" if a failover span started, ended, or stayed open
        # anywhere inside it; "migration" likewise covers windows a
        # migration protocol touched or spanned (planned churn, ranked
        # below unplanned failure but above a mere replan).
        if (
            self._window_failovers
            or self._window_failover_end
            or self._open_failovers > 0
        ):
            phase = "failover"
        elif self._window_failures or self._availability.degraded():
            phase = "failure"
        elif self._window_migrations or self._open_migrations > 0:
            phase = "migration"
        elif self._window_replans:
            phase = "replan"
        else:
            phase = "steady"

        lat = sorted_summary(drained, total)
        record: dict[str, Any] = {
            "window": self._window_index,
            "start": start,
            "end": end,
            "phase": phase,
            "availability": availability,
            "bad_seconds": bad,
            "input": inflow,
            "output": output,
            "drops": self._window_drops,
            "failovers": self._window_failovers,
            "lat_count": lat["count"],
            "lat_p50": lat["p50"],
            "lat_p95": lat["p95"],
            "lat_max": lat["max"],
        }
        self._windows.append(record)
        self._events.emit(
            "slo.window",
            tenant=self._tenant,
            window=record["window"],
            start=start,
            end=end,
            phase=phase,
            availability=availability,
            bad_seconds=bad,
            input=inflow,
            output=output,
            drops=record["drops"],
            failovers=record["failovers"],
            lat_count=lat["count"],
            lat_p50=lat["p50"],
            lat_p95=lat["p95"],
            lat_max=lat["max"],
        )

        self._bad_total += bad
        self._drops_total += self._window_drops
        self._input_total += inflow
        self._output_total += output
        self._check_burn(bad / span)

        self._window_index += 1
        self._window_start = end
        self._window_drops = 0
        self._window_failovers = 0
        self._window_failover_end = False
        self._window_failures = False
        self._window_replans = False
        self._window_migrations = False

    def _check_burn(self, bad_fraction: float) -> None:
        cfg = self._config
        history = self._bad_history
        history.append(bad_fraction)
        if len(history) > cfg.slow_windows:
            del history[0]
        budget = 1.0 - cfg.availability_target
        fast_slice = history[-cfg.fast_windows :]
        burn_fast = left_sum(fast_slice) / len(fast_slice) / budget
        burn_slow = left_sum(history) / len(history) / budget
        threshold = cfg.burn_threshold - EPS
        firing = burn_fast >= threshold and burn_slow >= threshold
        if firing == self._alert_on:
            return
        self._alert_on = firing
        state = "firing" if firing else "resolved"
        record = {
            "rule": "availability-burn",
            "state": state,
            "window": self._window_index,
            "burn_fast": burn_fast,
            "burn_slow": burn_slow,
        }
        self._alerts.append(record)
        self._events.emit(
            "slo.alert",
            tenant=self._tenant,
            rule="availability-burn",
            state=state,
            window=self._window_index,
            burn_fast=burn_fast,
            burn_slow=burn_slow,
        )

    # ------------------------------------------------------------------
    # Finalization and summary
    # ------------------------------------------------------------------

    def finalize(self, horizon: float) -> None:
        """Close remaining windows at ``horizon`` and emit ``slo.budget``.

        Call exactly once, after the simulation run returns; the final
        window may be partial (``end == horizon``).
        """
        if self._finalized:
            raise ReproError("SloEngine.finalize() called twice")
        window = self._config.window
        while self._window_start + window <= horizon:
            self._close_window(self._window_start + window)
        if horizon > self._window_start + EPS:
            self._close_window(horizon)
        self._horizon = horizon
        self._trusted = self._events.evicted == 0
        budget_seconds = (1.0 - self._config.availability_target) * horizon
        fired = sum(1 for a in self._alerts if a["state"] == "firing")
        if not self._trusted:
            self._verdict = "untrusted"
        elif self._bad_total > budget_seconds + EPS:
            self._verdict = "breached"
        else:
            self._verdict = "met"
        self._events.emit(
            "slo.budget",
            tenant=self._tenant,
            objective=self._config.availability_target,
            windows=len(self._windows),
            bad_seconds=self._bad_total,
            budget_seconds=budget_seconds,
            burned=(
                self._bad_total / budget_seconds if budget_seconds > 0 else 0.0
            ),
            alerts=fired,
            trusted=self._trusted,
            verdict=self._verdict,
        )
        self._finalized = True

    def summary(self) -> dict[str, Any]:
        """The tenant's full SLO verdict (JSON-ready, deterministic)."""
        if not self._finalized:
            raise ReproError("finalize() the SLO engine before summary()")
        horizon = self._horizon
        budget_seconds = (1.0 - self._config.availability_target) * horizon
        return {
            "tenant": self._tenant,
            "objective": self._config.availability_target,
            "window_seconds": self._config.window,
            "horizon": horizon,
            "n_windows": len(self._windows),
            "availability": (
                1.0 - self._bad_total / horizon if horizon > 0 else 1.0
            ),
            "bad_seconds": self._bad_total,
            "budget_seconds": budget_seconds,
            "burned": (
                self._bad_total / budget_seconds if budget_seconds > 0 else 0.0
            ),
            "verdict": self._verdict,
            "trusted": self._trusted,
            "alerts": list(self._alerts),
            "input": self._input_total,
            "output": self._output_total,
            "drops": self._drops_total,
            "latency": self._latency_summary(),
            "failover": self._failover_hist.summary(),
            "windows": list(self._windows),
        }

    def _latency_summary(self) -> dict[str, Optional[float]]:
        """The run's latency over every drained sample: one sort of the
        columns' drained prefixes, with the window sums as the sum."""
        drained: list[float] = []
        for cursor, (_, (_, latencies)) in zip(self._cursors, self._latency):
            drained += latencies[:cursor]
        return sorted_summary(drained, self._latency_sum)


def attach_slo(
    platform: "StreamPlatform",
    availability: AvailabilityTracker,
    config: Optional[SloConfig] = None,
    *,
    tenant: str = "-",
) -> SloEngine:
    """Wire an :class:`SloEngine` into a platform's telemetry.

    Call after platform construction and before ``run()``; sinks and
    sources are registered in the platform constructor, so their live
    buffers exist. Sink/source iteration order is sorted by name for
    cross-mode determinism.
    """
    metrics = platform.metrics
    engine = SloEngine(
        platform.telemetry.events,
        availability,
        config,
        tenant=tenant,
        latency=[
            (name, metrics.sink_latency[name].sample_buffer())
            for name in sorted(metrics.sink_latency)
        ],
        output_buckets=[
            metrics.sink_series[name].bucket_map()
            for name in sorted(metrics.sink_series)
        ],
        input_buckets=[
            metrics.source_series[name].bucket_map()
            for name in sorted(metrics.source_series)
        ],
    )
    platform.telemetry.events.add_tap(engine.on_event)
    return engine
