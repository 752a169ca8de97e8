"""Unit tests for source and sink operators."""

from __future__ import annotations

import random

import pytest

from repro.dsps import InputTrace, TraceSegment
from repro.dsps.endpoints import SinkOperator, SourceOperator
from repro.dsps.metrics import TimeSeries
from repro.sim import Environment


class TestSourceOperator:
    def build(self, trace, rng=None, jitter=0.0):
        env = Environment()
        delivered = []
        series = TimeSeries()
        source = SourceOperator(
            env, "src", trace,
            deliver=lambda name: delivered.append((env.now, name)),
            series=series, rng=rng, jitter=jitter,
        )
        return env, source, delivered, series

    def test_deterministic_emission(self):
        trace = InputTrace([TraceSegment(2.0, 5.0)])
        env, source, delivered, series = self.build(trace)
        env.run()
        assert source.emitted == 10
        assert len(delivered) == 10
        assert delivered[0] == (0.5, "src")
        assert sum(series.bucket_map().values()) == 10

    def test_jittered_emission_count_close_to_nominal(self):
        trace = InputTrace([TraceSegment(5.0, 40.0)])
        env, source, _, _ = self.build(
            trace, rng=random.Random(1), jitter=0.3
        )
        env.run()
        assert source.emitted == pytest.approx(200, abs=15)


class TestSinkOperator:
    def test_counts_and_latency(self):
        env = Environment()
        series = TimeSeries()
        sink = SinkOperator(env, "out", series)
        env.schedule(2.0, lambda: sink.on_tuple("pe", birth=1.5))
        env.schedule(3.0, lambda: sink.on_tuple("pe", birth=1.0))
        env.run()
        assert sink.received == 2
        assert sink.latency.mean() == pytest.approx((0.5 + 2.0) / 2)

    def test_birthless_tuples_skip_latency(self):
        env = Environment()
        sink = SinkOperator(env, "out", TimeSeries())
        sink.on_tuple("pe")
        assert sink.received == 1
        assert len(sink.latency) == 0
