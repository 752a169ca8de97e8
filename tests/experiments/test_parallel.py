"""The process-parallel experiment fabric: knob resolution and the
serial/parallel bit-identity contract.

The experiments' FT-Search budgets count nodes, not seconds, so every
record a grid or the study returns is a function of its inputs alone and
must be equal across worker counts.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ExperimentError
from repro.experiments.cluster import BASE_SEED, run_cluster_experiment
from repro.experiments.ftsearch_study import run_ftsearch_study
from repro.experiments.parallel import (
    FabricProfile,
    resolve_jobs,
    run_tasks,
)
from repro.experiments.scale import ExperimentScale, StudyScale
from repro.workloads.generator import (
    ClusterParams,
    GeneratorParams,
    generate_corpus,
)


# ----------------------------------------------------------------------
# resolve_jobs
# ----------------------------------------------------------------------

def test_explicit_argument_wins(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(3) == 3


def test_env_variable_used_when_no_argument(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5


def test_defaults_to_cpu_count(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == (os.cpu_count() or 1)


def test_junk_env_value_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ExperimentError):
        resolve_jobs()


@pytest.mark.parametrize("jobs", (0, -2))
def test_non_positive_jobs_rejected(jobs):
    with pytest.raises(ExperimentError):
        resolve_jobs(jobs)


# ----------------------------------------------------------------------
# run_tasks
# ----------------------------------------------------------------------

def _square(x: int) -> int:
    return x * x


def test_serial_path_preserves_order():
    assert run_tasks(_square, [3, 1, 2], jobs=1) == [9, 1, 4]


def test_pool_preserves_order():
    tasks = list(range(20))
    assert run_tasks(_square, tasks, jobs=4) == [x * x for x in tasks]


def test_single_task_stays_in_process():
    # Local closures are unpicklable: this only passes on the in-process
    # path, which run_tasks must take for a single task.
    marker = []

    def worker(x):
        marker.append(x)
        return x

    assert run_tasks(worker, [42], jobs=8) == [42]
    assert marker == [42]


# ----------------------------------------------------------------------
# Serial / parallel bit-identity
# ----------------------------------------------------------------------

_TINY = ExperimentScale(
    corpus_size=2,
    crash_corpus_size=1,
    trace_seconds=18.0,  # the shortest ExperimentScale accepts
)


def _tiny_corpus():
    return generate_corpus(
        _TINY.corpus_size,
        BASE_SEED,
        params=GeneratorParams(n_pes=6, tuple_budget=2000.0),
        cluster=ClusterParams(n_hosts=3, cores_per_host=4),
    )


def test_cluster_experiment_bit_identical_across_jobs():
    corpus = _tiny_corpus()
    serial = run_cluster_experiment(_TINY, corpus=corpus, jobs=1)
    parallel = run_cluster_experiment(_TINY, corpus=corpus, jobs=4)

    assert serial.variant_names == parallel.variant_names
    assert set(serial._rows) == set(parallel._rows)
    for key, row in serial._rows.items():
        # RunResult is a frozen dataclass of scalars: == is bit-identity.
        assert parallel._rows[key] == row


def test_ftsearch_study_deterministic_fields_identical_across_jobs():
    scale = StudyScale(instances=4, ic_targets=(0.5, 0.7))
    serial = run_ftsearch_study(scale, jobs=1)
    parallel = run_ftsearch_study(scale, jobs=4)

    # StudyRun is a frozen dataclass with no wall-clock field left:
    # == is bit-identity of every record.
    assert serial.runs == parallel.runs


def test_jobs_env_reaches_the_grid(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    corpus = _tiny_corpus()
    via_env = run_cluster_experiment(_TINY, corpus=corpus)
    explicit = run_cluster_experiment(_TINY, corpus=corpus, jobs=1)
    assert via_env._rows == explicit._rows


# ----------------------------------------------------------------------
# Fabric profiling
# ----------------------------------------------------------------------

class TestFabricProfile:
    def test_profiling_never_changes_results(self):
        tasks = list(range(8))
        profile = FabricProfile()
        assert run_tasks(_square, tasks, jobs=2, profile=profile) == (
            run_tasks(_square, tasks, jobs=2)
        )

    def test_one_timing_per_task_in_submission_order(self):
        profile = FabricProfile()
        run_tasks(_square, list(range(6)), jobs=2, profile=profile)
        assert [t.index for t in profile.timings] == list(range(6))
        assert all(t.seconds >= 0 for t in profile.timings)
        assert all(t.queue_wait >= 0 for t in profile.timings)

    def test_serial_path_runs_in_process(self):
        profile = FabricProfile()
        run_tasks(_square, [1, 2, 3], jobs=1, profile=profile)
        assert profile.jobs == 1
        assert {t.worker for t in profile.timings} == {os.getpid()}

    def test_summary_shape(self):
        profile = FabricProfile(label="grid")
        run_tasks(_square, list(range(5)), jobs=2, profile=profile)
        summary = profile.summary()
        assert summary["label"] == "grid"
        assert summary["n_tasks"] == 5
        assert summary["jobs"] == 2
        assert summary["wall_seconds"] > 0
        assert 0 < summary["utilization"] <= 1.0
        assert sum(w["tasks"] for w in summary["workers"]) == 5

    def test_empty_profile_summary(self):
        summary = FabricProfile(label="idle").summary()
        assert summary == {
            "label": "idle", "n_tasks": 0, "jobs": 0, "wall_seconds": 0.0,
        }

    def test_record_folds_multiple_calls(self):
        profile = FabricProfile()
        run_tasks(_square, [1, 2], jobs=1, profile=profile)
        run_tasks(_square, [3, 4, 5], jobs=1, profile=profile)
        assert profile.summary()["n_tasks"] == 5


# ----------------------------------------------------------------------
# Observed-run event streams across worker counts
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def observed_inputs(tmp_path_factory):
    """A bundle and a matching strategy on disk, for the obs runner."""
    from repro.core import OptimizationProblem, ft_search
    from repro.workloads import save_bundle
    from repro.workloads.generator import generate_application

    root = tmp_path_factory.mktemp("obs")
    app = generate_application(
        2014,
        params=GeneratorParams(n_pes=6, tuple_budget=2000.0),
        cluster=ClusterParams(n_hosts=3, cores_per_host=4),
    )
    bundle = root / "app.json"
    save_bundle(app, bundle)
    result = ft_search(OptimizationProblem(app.deployment, ic_target=0.5))
    assert result.strategy is not None
    strategy = root / "strategy.json"
    result.strategy.to_json(strategy)
    return str(bundle), str(strategy)


def test_observed_event_streams_bit_identical_across_jobs(observed_inputs):
    """The telemetry determinism contract: JSONL event streams from the
    observed runs (``repro obs``: one campaign per paper mode) are
    byte-identical at any worker count, because every event is stamped
    in simulated time."""
    from repro.chaos import CampaignSpec, paper_campaigns, run_campaigns

    bundle, strategy = observed_inputs
    base = CampaignSpec(bundle, strategy, seed=3, duration=8.0)
    specs = paper_campaigns(base, ("none", "crash"))
    serial = run_campaigns(specs, jobs=1)
    parallel = run_campaigns(specs, jobs=4)

    assert [len(r["schedule"]) for r in serial] == [0, 1]
    for a, b in zip(serial, parallel):
        assert a["jsonl"] == b["jsonl"]
        assert a == b
