"""A distributed stream processing platform simulator.

The reproduction's substitute for IBM InfoSphere Streams: hosts with
per-core capacities, replicated PEs with bounded per-port queues and
selectivity-accurate tuple processing, primary/secondary replication
semantics, trace-driven sources, counting sinks, crash/recover hooks
for :mod:`repro.chaos`, and the metrics the paper's evaluation reports.
"""

from repro.dsps.endpoints import SinkOperator, SourceOperator
from repro.dsps.metrics import (
    LatencyRecorder,
    PortCounters,
    ReplicaMetrics,
    RunMetrics,
    TimeSeries,
)
from repro.dsps.monitoring import CpuSampler
from repro.dsps.operators import OperatorReplica, PortSpec, ReplicaGroup
from repro.dsps.platform import PlatformConfig, StreamPlatform
from repro.dsps.traces import InputTrace, TraceSegment, two_level_trace

__all__ = [
    "StreamPlatform",
    "PlatformConfig",
    "OperatorReplica",
    "PortSpec",
    "ReplicaGroup",
    "SourceOperator",
    "SinkOperator",
    "InputTrace",
    "TraceSegment",
    "two_level_trace",
    "RunMetrics",
    "ReplicaMetrics",
    "PortCounters",
    "LatencyRecorder",
    "TimeSeries",
    "CpuSampler",
]
