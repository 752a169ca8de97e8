"""The distributed stream platform simulator.

:class:`StreamPlatform` assembles a runnable simulated deployment from the
core model objects: a :class:`~repro.core.deployment.ReplicatedDeployment`
(which fixes the application graph, the per-edge profiles, the hosts and
the replica placement) plus one input trace per source. It wires the data
path (primaries fan out to every replica of their successors), owns the
failure and control entry points the LAAR middleware and the failure
injectors drive, and collects :class:`~repro.dsps.metrics.RunMetrics`.

This is the reproduction's stand-in for IBM InfoSphere Streams: the same
quantities the paper measures on the real cluster (CPU time, drops,
per-PE processed counts, output rates) are produced here by explicit
queueing simulation at tuple granularity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.deployment import ReplicaId, ReplicatedDeployment
from repro.dsps.batched import BatchEngine, FallbackTracker
from repro.dsps.endpoints import SinkOperator, SourceOperator
from repro.dsps.hosts import HostScheduler
from repro.dsps.metrics import RunMetrics, TimeSeries
from repro.dsps.operators import OperatorReplica, PortSpec, ReplicaGroup
from repro.dsps.traces import InputTrace
from repro.errors import SimulationError
from repro.obs.telemetry import Telemetry
from repro.sim import Environment

__all__ = ["PlatformConfig", "StreamPlatform"]


def _cut(*_args: object) -> None:
    """A hook of a closed platform: the run it led back to is over."""


@dataclass(frozen=True)
class PlatformConfig:
    """Tunable runtime parameters of the simulated platform.

    ``failover_delay`` models the heartbeat timeout before a crashed
    primary's role moves to a secondary. ``resync_delay`` is the state
    resynchronisation time a replica pays when it is (re)activated.
    ``queue_seconds`` sizes each input-port queue to that many seconds of
    the port's highest-configuration rate (2 s in Sec. 5.2).

    ``event_buffer`` bounds the telemetry event-log ring
    (:mod:`repro.obs`); ``tuple_trace_every`` samples every N-th source
    tuple for lifecycle tracing (0, the default, disables tracing so the
    data path pays nothing).

    ``batching`` attaches the :class:`~repro.dsps.batched.BatchEngine`:
    source arrivals run out-of-heap and, while the platform is quiescent
    and the deployment has the shape for it (single source, fan-in
    free, selectivity <= 1), trains of tuple cascades commit in closed
    form; everything else runs on the kernel as in tuple-granular mode.
    Event logs and metrics are byte-identical to the tuple-granular mode
    (enforced by ``tests/sim/test_batched_equivalence.py``); only the
    wall-clock cost changes. See ``docs/performance.md``.
    """

    failover_delay: float = 1.0
    resync_delay: float = 0.0
    queue_seconds: float = 2.0
    arrival_jitter: float = 0.0
    heartbeat_interval: Optional[float] = None
    seed: int = 0
    event_buffer: int = 65536
    tuple_trace_every: int = 0
    batching: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.failover_delay < math.inf:
            raise SimulationError("failover_delay must be finite and >= 0")
        if not 0 <= self.resync_delay < math.inf:
            raise SimulationError("resync_delay must be finite and >= 0")
        if not 0 < self.queue_seconds < math.inf:
            raise SimulationError("queue_seconds must be finite and > 0")
        if not 0.0 <= self.arrival_jitter < 1.0:
            raise SimulationError("arrival_jitter must be in [0, 1)")
        if self.heartbeat_interval is not None:
            if not 0 < self.heartbeat_interval < math.inf:
                raise SimulationError(
                    "heartbeat_interval must be finite and > 0"
                )
            if self.heartbeat_interval > self.failover_delay:
                raise SimulationError(
                    "heartbeat_interval must not exceed failover_delay"
                    " (the detection timeout)"
                )
        if self.event_buffer < 1:
            raise SimulationError("event_buffer must be >= 1")
        if self.tuple_trace_every < 0:
            raise SimulationError("tuple_trace_every must be >= 0")


class StreamPlatform:
    """A runnable simulated deployment of one application."""

    def __init__(
        self,
        deployment: ReplicatedDeployment,
        traces: Mapping[str, InputTrace],
        initial_active: Mapping[ReplicaId, bool] | None = None,
        config: PlatformConfig | None = None,
    ) -> None:
        self._deployment = deployment
        self._descriptor = deployment.descriptor
        self._graph = self._descriptor.graph
        #: Each component's successors, looked up once per forward.
        self._succ: dict[str, tuple[str, ...]] = {
            name: self._graph.succ(name) for name in self._graph.components
        }
        self._config = config or PlatformConfig()
        self.env = env = Environment()
        self.metrics = RunMetrics()
        self.telemetry = Telemetry(
            clock=lambda: env.now,
            event_buffer=self._config.event_buffer,
            tuple_trace_every=self._config.tuple_trace_every,
        )
        self.env.telemetry = self.telemetry.events
        #: Bumped by every control action and every processability, role
        #: or speed change: what reads only those holds while it stands.
        self.control_epoch = 0

        # Batched execution engine (optional) and the disturbance
        # tracker. The tracker runs in BOTH modes so the
        # ``batch.fallback`` events it emits keep the logs
        # byte-identical across modes; the engine never consults it.
        self._engine: Optional[BatchEngine] = None
        if self._config.batching:
            self._engine = BatchEngine(self)
            self.env.engine = self._engine
        self.fallback = FallbackTracker(
            self.telemetry.events,
            clock=lambda: env.now,
            settle=(
                self._config.failover_delay
                + self._config.resync_delay
                + self._config.queue_seconds
            ),
        )

        missing = [s for s in self._graph.sources if s not in traces]
        if missing:
            raise SimulationError(f"no input trace for sources {missing}")

        self._validate_core_budget()

        # One processor-sharing scheduler per host (the Eq. 11 capacity).
        self._host_schedulers: dict[str, HostScheduler] = {
            host.name: HostScheduler(
                self.env,
                host.name,
                capacity=host.capacity,
                cycles_per_core=host.cycles_per_core,
            )
            for host in deployment.hosts
        }
        for scheduler in self._host_schedulers.values():
            scheduler.on_speed_change = self._bump_epoch

        # Build PE replicas and their groups.
        self._replicas: dict[ReplicaId, OperatorReplica] = {}
        self._groups: dict[str, ReplicaGroup] = {}
        for pe in self._graph.pes:
            group = ReplicaGroup(
                self.env,
                pe,
                failover_delay=self._config.failover_delay,
                telemetry=self.telemetry,
            )
            self._groups[pe] = group
            ports = self._build_ports(pe)
            for replica_id in deployment.replicas_of(pe):
                active = (
                    initial_active.get(replica_id, True)
                    if initial_active is not None
                    else True
                )
                replica = OperatorReplica(
                    env=self.env,
                    replica_id=replica_id,
                    host=self._host_schedulers[
                        deployment.host_of(replica_id)
                    ],
                    ports=ports,
                    metrics=self.metrics.replica(replica_id),
                    emit=self._forward_output,
                    initially_active=active,
                    resync_delay=self._config.resync_delay,
                    events=self.telemetry.events,
                    tracer=self.telemetry.tuple_tracer,
                )
                replica.on_state_change = self._bump_epoch
                self._replicas[replica_id] = replica
                group.add(replica)
            group.on_primary_change = self._bump_epoch
            group.initialise_primary()
            if self._config.heartbeat_interval is not None:
                fanout = sum(
                    len(deployment.replicas_of(succ))
                    if succ in self._graph.pes
                    else 1
                    for succ in self._graph.succ(pe)
                )
                group.enable_heartbeats(
                    interval=self._config.heartbeat_interval,
                    timeout=self._config.failover_delay,
                    fanout=fanout,
                    network=self.metrics.network,
                )

        # Dynamic host residency: which replicas currently execute on
        # which host. Starts as the deployment's static assignment and
        # is updated by live migrations (attach/detach), so host-level
        # failures hit the replicas *actually* there, not the ones the
        # original placement put there.
        self._residents: dict[str, list[ReplicaId]] = {
            host.name: list(deployment.replicas_on(host.name))
            for host in deployment.hosts
        }
        #: Hooks invoked (in registration order) after a host crash has
        #: been applied — the migration engine aborts open windows here.
        self.on_host_crash: list = []

        # Build sinks, then sources (sources start emitting immediately).
        self._sinks: dict[str, SinkOperator] = {}
        for sink in self._graph.sinks:
            series = TimeSeries()
            self.metrics.sink_series[sink] = series
            operator = SinkOperator(
                self.env, sink, series,
                tracer=self.telemetry.tuple_tracer,
            )
            self.metrics.sink_latency[sink] = operator.latency
            self._sinks[sink] = operator

        jitter = self._config.arrival_jitter
        rng = random.Random(self._config.seed) if jitter > 0 else None
        self._sources: dict[str, SourceOperator] = {}
        for source in self._graph.sources:
            series = TimeSeries()
            self.metrics.source_series[source] = series
            self._sources[source] = SourceOperator(
                env=self.env,
                name=source,
                trace=traces[source],
                deliver=self._forward_from_source,
                series=series,
                rng=rng,
                jitter=jitter,
                engine=self._engine,
            )
        self._trace_duration = max(t.duration for t in traces.values())
        self._closed = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _validate_core_budget(self) -> None:
        for host in self._deployment.hosts:
            replicas = self._deployment.replicas_on(host.name)
            if len(replicas) > host.cores:
                raise SimulationError(
                    f"host {host.name!r} has {host.cores} cores but"
                    f" {len(replicas)} replicas; the simulator pins one"
                    " replica per core"
                )

    def _build_ports(self, pe: str) -> list[PortSpec]:
        rate_table = self._descriptor.rate_table
        ports = []
        for edge in self._graph.pe_input_edges(pe):
            peak_rate = max(rate_table.rates_of(edge.tail))
            capacity = max(
                1, math.ceil(self._config.queue_seconds * peak_rate)
            )
            ports.append(
                PortSpec(
                    name=edge.tail,
                    cycles=self._descriptor.cpu_cost(edge.tail, pe),
                    selectivity=self._descriptor.selectivity(edge.tail, pe),
                    capacity=capacity,
                )
            )
        return ports

    # ------------------------------------------------------------------
    # Data path wiring
    # ------------------------------------------------------------------

    def _forward_from_source(self, source: str) -> None:
        birth = self.env.now
        tracer = self.telemetry.tuple_tracer
        if tracer is not None:
            tracer.on_emit(source, birth)
        groups = self._groups
        for succ in self._succ[source]:
            group = groups.get(succ)
            if group is None:
                self._sinks[succ].on_tuple(source, birth)
                continue
            for replica in group.members:
                replica.on_tuple(source, birth)

    def _forward_output(self, replica: OperatorReplica, birth: float) -> None:
        pe = replica.replica_id.pe
        sender_host = replica.host
        groups = self._groups
        intra = inter = 0
        for succ in self._succ[pe]:
            if succ not in groups:
                self._sinks[succ].on_tuple(pe, birth)
                continue
            for target in groups[succ].members:
                if target.host is sender_host:
                    intra += 1
                else:
                    inter += 1
                target.on_tuple(pe, birth)
        network = self.metrics.network
        network.intra_host_tuples += intra
        network.inter_host_tuples += inter

    # ------------------------------------------------------------------
    # Control and failure entry points
    # ------------------------------------------------------------------

    def replica(self, replica_id: ReplicaId) -> OperatorReplica:
        try:
            return self._replicas[replica_id]
        except KeyError:
            raise SimulationError(f"unknown replica {replica_id}") from None

    def group(self, pe: str) -> ReplicaGroup:
        try:
            return self._groups[pe]
        except KeyError:
            raise SimulationError(f"unknown PE {pe!r}") from None

    @property
    def sources(self) -> Mapping[str, SourceOperator]:
        return dict(self._sources)

    @property
    def sinks(self) -> Mapping[str, SinkOperator]:
        return dict(self._sinks)

    @property
    def deployment(self) -> ReplicatedDeployment:
        return self._deployment

    @property
    def trace_duration(self) -> float:
        return self._trace_duration

    @property
    def engine(self) -> Optional[BatchEngine]:
        """The batched execution engine, or ``None`` in tuple mode."""
        return self._engine

    def _bump_epoch(self) -> None:
        self.control_epoch += 1

    def _note_disturbance(self, reason: str) -> None:
        """Record a control-plane action: the tracker opens or extends
        its disturbance window (in both modes, keeping logs identical)
        and the control epoch moves on."""
        self.fallback.on_control(reason)
        self.control_epoch += 1

    def set_activation(self, replica_id: ReplicaId, active: bool) -> None:
        replica = self.replica(replica_id)
        if active:
            if not replica.active:
                self._note_disturbance("replica.activate")
            replica.activate()
        else:
            if replica.active:
                self._note_disturbance("replica.deactivate")
            replica.deactivate()

    def crash_replica(self, replica_id: ReplicaId) -> None:
        self.telemetry.emit("replica.crash", replica=str(replica_id))
        self._note_disturbance("replica.crash")
        self.replica(replica_id).crash()

    def recover_replica(self, replica_id: ReplicaId) -> None:
        self.telemetry.emit("replica.recover", replica=str(replica_id))
        self._note_disturbance("replica.recover")
        self.replica(replica_id).recover()

    def crash_host(self, host: str) -> None:
        self.telemetry.emit("host.crash", host=host)
        self._note_disturbance("host.crash")
        for replica_id in tuple(self.residents(host)):
            self.replica(replica_id).crash()
        for hook in tuple(self.on_host_crash):
            hook(host)

    def recover_host(self, host: str) -> None:
        self.telemetry.emit("host.recover", host=host)
        self._note_disturbance("host.recover")
        for replica_id in tuple(self.residents(host)):
            self.replica(replica_id).recover()

    def degrade_host(self, host: str, factor: float) -> None:
        """Throttle a host to ``factor`` of its nominal capacity.

        Models a slow-host straggler: replicas stay alive and active but
        their shared CPU delivers fewer cycles per second, so queues grow
        exactly as they would behind a thermally-throttled or contended
        server.
        """
        self.telemetry.emit("host.degrade", host=host, factor=factor)
        self._note_disturbance("host.degrade")
        self.host_scheduler(host).set_speed_factor(factor)

    def restore_host(self, host: str) -> None:
        """Return a degraded host to its nominal capacity."""
        self.telemetry.emit("host.restore", host=host)
        self._note_disturbance("host.restore")
        self.host_scheduler(host).set_speed_factor(1.0)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self, until: Optional[float] = None, drain: float = 2.0
    ) -> RunMetrics:
        """Run the simulation and return the collected metrics.

        By default the platform runs for the whole trace plus ``drain``
        seconds so in-flight tuples can finish.
        """
        if self._closed:
            raise SimulationError("the platform is closed")
        horizon = until if until is not None else (
            self._trace_duration + drain
        )
        self.env.run(until=horizon)
        for name, source in self._sources.items():
            self.metrics.source_emitted[name] = source.emitted
        for name, sink in self._sinks.items():
            self.metrics.sink_received[name] = sink.received
        return self.metrics

    def close(self) -> None:
        """Release the run once everything wanted from it has been read.

        The data path, the hooks and the pending events link the
        platform and its parts into cycles. Each owner drops the links
        it holds and the hooks that lead back to the platform are cut,
        so the whole run is freed by reference counting instead of
        waiting for the cycle collector. What a finished run is read for
        stays: the metrics, the event log and spans, :attr:`fallback`,
        :attr:`env`'s counters and every replica through :meth:`replica`
        (so :meth:`conservation`). The groups, hosts, sources and engine
        are dropped, and :meth:`run` refuses. Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self.env.close()
        self.telemetry.events.close()
        for replica in self._replicas.values():
            replica._emit = _cut
            replica.on_state_change = _cut
        for group in self._groups.values():
            group.close()
            group.on_primary_change = _cut
        for scheduler in self._host_schedulers.values():
            scheduler._jobs = {}
            scheduler.on_speed_change = _cut
        self._groups = {}
        self._host_schedulers = {}
        self._sources = {}
        self.on_host_crash = []
        self._engine = None

    def conservation(self) -> dict[str, dict[str, int]]:
        """Per-replica conservation counters, keyed by ``pe#index``.

        The table :func:`repro.dsps.metrics.conservation_gaps` judges;
        ``queued`` is read live (in-flight work counts as queued), so
        take it at the horizon, after :meth:`run`.
        """
        table = {
            str(replica_id): {
                "received": counters.received,
                "processed": counters.processed,
                "dropped": counters.dropped,
                "lost": counters.lost,
                "queued": self.replica(replica_id).queue_length,
            }
            for replica_id, counters in self.metrics.replicas.items()
        }
        return dict(sorted(table.items()))

    def host_scheduler(self, host: str) -> HostScheduler:
        try:
            return self._host_schedulers[host]
        except KeyError:
            raise SimulationError(f"unknown host {host!r}") from None

    # ------------------------------------------------------------------
    # Live reconfiguration primitives (driven by repro.elastic)
    # ------------------------------------------------------------------

    def residents(self, host: str) -> tuple[ReplicaId, ...]:
        """The replicas currently executing on ``host`` (dynamic)."""
        try:
            return tuple(self._residents[host])
        except KeyError:
            raise SimulationError(f"unknown host {host!r}") from None

    def attach_replica(
        self, pe: str, host: str, active: bool = False
    ) -> ReplicaId:
        """Deploy a fresh replica of ``pe`` on ``host`` (live migration).

        The new replica gets the next unused index for the PE (indices
        are never reused: detached replicas keep their metrics under the
        old identity). It joins the PE's replica group inactive by
        default — the migration protocol warms it up with an explicit
        activation after the state transfer. Placement invariants are
        enforced here, admission-style: one replica per core, and no
        other replica of the same PE already on the host.
        """
        group = self.group(pe)
        scheduler = self.host_scheduler(host)
        host_obj = self._deployment.host(host)
        residents = self._residents[host]
        if len(residents) >= host_obj.cores:
            raise SimulationError(
                f"host {host!r} has {host_obj.cores} cores and"
                f" {len(residents)} resident replicas; the simulator pins"
                " one replica per core"
            )
        for member in group.members:
            if member.host.name == host:
                raise SimulationError(
                    f"PE {pe!r} already has a replica on host {host!r}"
                    " (anti-affinity)"
                )
        index = max(
            (r.replica for r in self._replicas if r.pe == pe),
            default=-1,
        ) + 1
        replica_id = ReplicaId(pe, index)
        replica = OperatorReplica(
            env=self.env,
            replica_id=replica_id,
            host=scheduler,
            ports=self._build_ports(pe),
            metrics=self.metrics.replica(replica_id),
            emit=self._forward_output,
            initially_active=active,
            resync_delay=self._config.resync_delay,
            events=self.telemetry.events,
            tracer=self.telemetry.tuple_tracer,
        )
        replica.on_state_change = self._bump_epoch
        self._replicas[replica_id] = replica
        group.add(replica)
        residents.append(replica_id)
        residents.sort()
        self._note_disturbance("migration.attach")
        return replica_id

    def detach_replica(self, replica_id: ReplicaId) -> None:
        """Remove a replica from its group and host (cutover/rollback).

        The replica object — and its metrics — survive under the old
        identity so tuple conservation still closes over the whole run;
        it just stops being a delivery target. Queued work keeps being
        served (the drain) unless the caller deactivates the replica.
        """
        replica = self.replica(replica_id)
        if replica.group is None:
            raise SimulationError(
                f"replica {replica_id} is already detached"
            )
        self._note_disturbance("migration.detach")
        replica.group.remove(replica)
        residents = self._residents[replica.host.name]
        if replica_id in residents:
            residents.remove(replica_id)
