"""Integration tests of the cluster experiment runner (tiny scale)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.baselines import (
    greedy_deactivation,
    non_replicated,
    static_replication,
)
from repro.dsps.traces import two_level_trace
from repro.errors import ExperimentError
from repro.experiments import (
    ClusterResults,
    ExperimentScale,
    FailureMode,
    run_cluster_experiment,
)
from repro.experiments.cluster import run_variant
from repro.experiments.scale import peak_window
from repro.experiments.variants import VariantSet
from repro.workloads import GeneratorParams, generate_application


@pytest.fixture(scope="module")
def tiny_results() -> ClusterResults:
    """A 2-application grid with short traces; shared across tests."""
    scale = ExperimentScale(
        corpus_size=2,
        crash_corpus_size=1,
        trace_seconds=30.0,
        ic_targets=(0.5,),
    )
    corpus = [
        generate_application(
            seed, params=GeneratorParams(n_pes=10), name=f"app-{seed}"
        )
        for seed in (21, 22)
    ]
    return run_cluster_experiment(scale, corpus=corpus)


class TestScale:
    def test_validation(self):
        """Each refusal names the field it refuses."""
        for field, kwargs in (
            ("corpus_size", dict(corpus_size=0)),
            ("crash_corpus_size", dict(corpus_size=2, crash_corpus_size=5)),
            ("crash_corpus_size", dict(crash_corpus_size=-3)),
            ("trace_seconds", dict(trace_seconds=0.0)),
            ("trace_seconds", dict(trace_seconds=float("nan"))),
            ("trace_seconds", dict(trace_seconds=float("inf"))),
            ("ic_targets", dict(ic_targets=())),
            ("ic_targets", dict(ic_targets=(1.5,))),
        ):
            with pytest.raises(ExperimentError, match=field):
                ExperimentScale(**kwargs)

    def test_trace_too_short_for_the_peak_window(self, monkeypatch):
        """Fig. 10 reads the High burst minus 2 monitor periods and 1 s;
        a trace that leaves it no whole second used to divide by NR's
        zero peak rate at rendering time."""
        refusal = r"REPRO_TRACE_SECONDS.*>= 18\b"
        with pytest.raises(ExperimentError, match=refusal):
            ExperimentScale(trace_seconds=12.0)
        monkeypatch.setenv("REPRO_TRACE_SECONDS", "17.5")
        with pytest.raises(ExperimentError, match=refusal):
            ExperimentScale.from_env()
        monkeypatch.setenv("REPRO_TRACE_SECONDS", "18")
        shortest = ExperimentScale.from_env().trace_seconds
        assert peak_window(two_level_trace(1.0, 2.0, shortest)) == (10.0, 11.0)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORPUS_SIZE", "4")
        monkeypatch.setenv("REPRO_TRACE_SECONDS", "33.5")
        scale = ExperimentScale.from_env()
        assert scale.corpus_size == 4
        assert scale.trace_seconds == 33.5

    def test_env_override_rejects_junk(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORPUS_SIZE", "lots")
        with pytest.raises(ExperimentError):
            ExperimentScale.from_env()


class TestGrid:
    def test_all_variants_present(self, tiny_results):
        assert tiny_results.variant_names == ("NR", "SR", "GRD", "L.5")

    def test_best_and_worst_for_every_app(self, tiny_results):
        for app in tiny_results.apps:
            for variant in tiny_results.variant_names:
                tiny_results.get(app, variant, FailureMode.BEST)
                tiny_results.get(app, variant, FailureMode.WORST)

    def test_crash_runs_limited_to_subset(self, tiny_results):
        assert len(tiny_results.crash_apps) == 1

    def test_missing_run_raises(self, tiny_results):
        with pytest.raises(ExperimentError):
            tiny_results.get("ghost", "SR", FailureMode.BEST)

    def test_nr_normalizations_are_one(self, tiny_results):
        assert all(v == 1.0 for v in tiny_results.normalized_cpu("NR"))
        assert all(
            v == pytest.approx(1.0)
            for v in tiny_results.peak_output_ratio("NR")
        )

    def test_measured_ic_rejects_best_mode(self, tiny_results):
        with pytest.raises(ExperimentError):
            tiny_results.measured_ic("SR", FailureMode.BEST)


class TestShapes:
    """The paper's qualitative findings, at tiny scale."""

    def test_sr_costs_more_than_laar(self, tiny_results):
        sr = sum(tiny_results.normalized_cpu("SR"))
        laar = sum(tiny_results.normalized_cpu("L.5"))
        assert sr > laar > len(tiny_results.apps)  # LAAR above NR's 1.0

    def test_nr_processes_nothing_in_worst_case(self, tiny_results):
        assert all(
            v == 0.0
            for v in tiny_results.measured_ic("NR", FailureMode.WORST)
        )

    def test_laar_honours_ic_bound_in_worst_case(self, tiny_results):
        for value in tiny_results.measured_ic("L.5", FailureMode.WORST):
            assert value >= 0.5 * 0.9  # small transition slack

    def test_run_results_have_consistent_counters(self, tiny_results):
        for app in tiny_results.apps:
            run = tiny_results.get(app, "SR", FailureMode.BEST)
            assert run.input > 0
            assert 0 <= run.output
            assert run.processed > 0
            assert run.cpu_time > 0


#: One 10-PE application's run of every (variant, mode), as recorded
#: before the grid's runs went through ``CampaignRun``: the RunResult
#: fields in declaration order after ``mode``, floats as ``float.hex``.
#: The last four (the judge's) were recorded when they were added.
PINNED = {
    ("NR", "BEST"): ('0x1.d22f8da16a2dfp+8', 0, 7114, 2518, 238, '0x1.8acccccccccd7p+7', 0, '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.35c8406730640p+8'),
    ("NR", "WORST"): ('0x0.0p+0', 0, 0, 0, 238, '0x0.0p+0', 0, '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ("NR", "CRASH"): ('0x1.040fc17ccc12ep+7', 0, 1981, 698, 238, '0x0.0p+0', 0, '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ("SR", "BEST"): ('0x1.d22f8da16a2e0p+9', 0, 7114, 2518, 238, '0x1.0e00000000007p+7', 0, '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ("SR", "WORST"): ('0x1.d22f8da16a2dfp+8', 0, 7114, 2518, 238, '0x1.0e00000000007p+7', 0, '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ("SR", "CRASH"): ('0x1.6264b9867d048p+9', 0, 6539, 2314, 238, '0x1.106666666666dp+7', 0, '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ("GRD", "BEST"): ('0x1.7b25923e13603p+9', 0, 7114, 2518, 238, '0x1.860000000000ap+7', 2, '0x1.9999999999a00p-4', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ("GRD", "WORST"): ('0x1.0b865d10bdb3ep+8', 0, 4077, 1433, 238, '0x0.0p+0', 2, '0x1.9999999999a00p-4', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ("GRD", "CRASH"): ('0x1.92970420afcfcp+8', 0, 3459, 1231, 238, '0x0.0p+0', 2, '0x1.9999999999a00p-4', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
}


@pytest.fixture(scope="module")
def pinned_variants() -> VariantSet:
    """Strategies passed in, so no search runs: SR, GRD (dynamic) and
    the NR variant read off GRD's High activations."""
    app = generate_application(
        21, params=GeneratorParams(n_pes=10), name="app-21"
    )
    grd = greedy_deactivation(app.deployment)
    return VariantSet(
        app=app,
        strategies={
            "NR": non_replicated(grd, 1),
            "SR": static_replication(app.deployment),
            "GRD": grd,
        },
    )


class TestPinnedRuns:
    """The grid's numbers do not move: every (variant, mode) RunResult
    of one small application, bit for bit."""

    @pytest.mark.parametrize("mode", list(FailureMode), ids=lambda m: m.name)
    def test_run_results_are_pinned(self, pinned_variants, mode):
        scale = ExperimentScale(
            corpus_size=1, crash_corpus_size=1, trace_seconds=20.0
        )
        for variant in pinned_variants.names:
            result = run_variant(pinned_variants, variant, mode, scale, 7)
            values = dataclasses.astuple(result)[3:]
            got = tuple(
                value.hex() if isinstance(value, float) else value
                for value in values
            )
            assert got == PINNED[variant, mode.name], (variant, mode)
