"""Exact-diagnostic tests for every rule, pinned on the fixture corpus.

Each rule gets one bad fixture file and the good corpus must stay clean;
assertions pin file, line *and* rule id so a rule that drifts (fires on
the wrong construct, or stops firing) fails loudly rather than just
changing a count.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import AnalysisReport, run_analysis
from repro.analysis.rules import RULE_IDS, RULES

FIXTURES = Path(__file__).parent / "fixtures"
NO_ALLOWLIST = FIXTURES / "missing-allowlist"


def _analyze(corpus: str) -> AnalysisReport:
    return run_analysis([FIXTURES / corpus], allowlist_path=NO_ALLOWLIST)


def _hits(report: AnalysisReport, filename: str) -> list[tuple[int, str]]:
    """(line, rule) pairs for one fixture file, in report order."""
    return [
        (d.line, d.rule)
        for d in report.diagnostics
        if d.file.endswith(filename)
    ]


class TestBadCorpus:
    def setup_method(self) -> None:
        self.report = _analyze("bad")

    def test_r1_wallclock_direct_aliased_and_datetime(self):
        assert _hits(self.report, "sim/wallclock.py") == [
            (11, "R1"),
            (16, "R1"),
            (21, "R1"),
        ]

    def test_r1_alias_resolves_to_real_target(self):
        aliased = [
            d
            for d in self.report.diagnostics
            if d.file.endswith("sim/wallclock.py") and d.line == 16
        ]
        assert len(aliased) == 1
        assert "time.monotonic()" in aliased[0].message

    def test_r2_unseeded_module_level_and_entropy(self):
        assert _hits(self.report, "sim/unseeded.py") == [
            (9, "R2"),
            (14, "R2"),
            (19, "R2"),
        ]

    def test_r3_for_loop_listify_and_comprehension(self):
        # The last two are the operator forms of set algebra
        # (``set(a) - set(b)``, ``set(a) | set(b)``).
        assert _hits(self.report, "ordering.py") == [
            (7, "R3"),
            (14, "R3"),
            (19, "R3"),
            (25, "R3"),
            (34, "R3"),
        ]

    def test_r4_unknown_type_missing_fields_and_type_mismatch(self):
        assert _hits(self.report, "obs/emitters.py") == [
            (6, "R4"),
            (7, "R4"),
            (9, "R4"),
        ]
        messages = [
            d.message
            for d in self.report.diagnostics
            if d.file.endswith("obs/emitters.py")
        ]
        assert "'not.in.schema' is not declared" in messages[0]
        assert "missing required payload field(s): port" in messages[1]
        assert (
            "field 'count': payload is str but the schema declares int"
            in messages[2]
        )

    def test_r4_schema_side_findings(self):
        assert _hits(self.report, "obs/schema.py") == [
            (6, "R4"),
            (9, "R4"),
            (9, "R4"),
            (9, "R4"),
        ]
        messages = [
            d.message
            for d in self.report.diagnostics
            if d.file.endswith("obs/schema.py")
        ]
        assert "'ghost.event' has no emitter" in messages[0]
        assert "'ghostfield' of 'typed.sample' is never passed" in messages[1]
        assert "'ratio' of 'typed.sample' is never passed" in messages[2]
        assert "unknown type tag 'quaternion'" in messages[3]

    def test_r5_unfrozen_spec(self):
        assert _hits(self.report, "bad/repro/specs.py") == [(7, "R5")]

    def test_r6_id_and_hash_on_sim_path(self):
        assert _hits(self.report, "sim/identity.py") == [
            (6, "R6"),
            (11, "R6"),
        ]

    def test_r7_fence_catches_stdlib_and_repro_fabric(self):
        hits = _hits(self.report, "sim/fence.py")
        assert hits == [(3, "R7"), (5, "R7")]
        messages = [
            d.message
            for d in self.report.diagnostics
            if d.file.endswith("sim/fence.py")
        ]
        assert "'threading'" in messages[0]
        assert "'repro.experiments.parallel'" in messages[1]

    def test_r7_fence_covers_the_deterministic_core(self):
        hits = _hits(self.report, "core/fence.py")
        assert hits == [(3, "R7"), (5, "R7")]
        messages = [
            d.message
            for d in self.report.diagnostics
            if d.file.endswith("core/fence.py")
        ]
        assert "'multiprocessing'" in messages[0]
        assert "'concurrent.futures'" in messages[1]

    def test_r10_fabric_worker_hygiene(self):
        assert _hits(self.report, "bad/repro/driver.py") == [
            (27, "R10"),
            (28, "R10"),
            (33, "R10"),
            (34, "R10"),
        ]
        messages = [
            d.message
            for d in self.report.diagnostics
            if d.file.endswith("bad/repro/driver.py")
        ]
        assert "lambda submitted to run_tasks" in messages[0]
        assert "unannotated payload 'task'" in messages[1]
        assert "nested function run_nested()" in messages[2]
        assert "MutableJob is not a frozen dataclass" in messages[3]

    def test_r8_malformed_and_unused(self):
        assert _hits(self.report, "bad/repro/suppress.py") == [
            (3, "R8"),
            (6, "R8"),
        ]

    def test_every_rule_fires_somewhere(self):
        fired = {d.rule for d in self.report.diagnostics}
        assert fired == set(RULE_IDS)

    def test_total_finding_count_is_pinned(self):
        # A new finding (or a silently dropped one) must be a conscious
        # fixture change, not drift.
        assert len(self.report.diagnostics) == 31
        assert not self.report.errors

    def test_diagnostics_render_as_path_line_col_rule(self):
        first = self.report.diagnostics[0]
        rendered = first.render()
        assert rendered == (
            f"{first.file}:{first.line}:{first.col}"
            f" {first.rule} {first.message}"
        )


class TestGoodCorpus:
    def test_clean_and_error_free(self):
        report = _analyze("good")
        assert report.diagnostics == []
        assert report.errors == []
        assert report.ok

    def test_used_suppressions_are_counted_not_reported(self):
        report = _analyze("good")
        ((diagnostic, _reason),) = report.suppressed
        assert diagnostic.file.endswith("suppress.py")
        assert diagnostic.rule == "R1"


class TestRuleCatalog:
    def test_rule_ids_are_stable(self):
        # R9 went with its one audited home; its id is not reused.
        assert [rule.rule_id for rule in RULES] == [
            f"R{n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 10)
        ]

    def test_sim_path_scoping(self):
        scoped = {r.rule_id for r in RULES if r.sim_path_only}
        assert scoped == {"R6", "R7"}


class TestAuditedConcurrencyTables:
    """R10's fabric entry points stay pinned to real code."""

    REPO_SRC = Path(__file__).parents[2] / "src"

    def test_r10_fabric_entry_points_exist(self):
        import repro.experiments.parallel as fabric
        from repro.analysis.rules import _FABRIC_TASK_FUNCS

        for dotted in _FABRIC_TASK_FUNCS:
            module, _, name = dotted.rpartition(".")
            assert module == "repro.experiments.parallel"
            assert hasattr(fabric, name)


class TestFoundByTheTrial:
    """Linter bugs the mutation trial of docs/static-analysis.md (and
    its review) turned up in rules that stay."""

    def _scan(self, tmp_path: Path, modules: dict[str, str]) -> AnalysisReport:
        for relative, source in modules.items():
            path = tmp_path / "repro" / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            for package in (tmp_path / "repro", path.parent):
                (package / "__init__.py").touch()
            path.write_text(source)
        return run_analysis([tmp_path / "repro"], allowlist_path=NO_ALLOWLIST)

    def test_r10_sees_a_fabric_call_from_the_defining_module(self, tmp_path):
        # repro.driver calls its own fan_out by bare name; the worker
        # named there must be checked like any other.
        report = self._scan(
            tmp_path,
            {
                "driver.py": (
                    '"""Doc."""\n'
                    "def fan_out(worker, tasks):\n"
                    "    return [worker(task) for task in tasks]\n"
                    "def run_all(tasks: list) -> list:\n"
                    "    return fan_out(lambda task: task, tasks)\n"
                )
            },
        )
        assert [(d.line, d.rule) for d in report.diagnostics] == [(5, "R10")]

    def test_r4_reads_a_name_only_in_its_own_scope(self, tmp_path):
        # ``lost`` is a float field of an unrelated class; the local
        # ``lost`` emitted below is an int and must not inherit the
        # class-body annotation (nor one from a sibling function).
        report = self._scan(
            tmp_path,
            {
                "obs/events.py": (
                    '"""Doc."""\n'
                    'EVENT_SCHEMA = {"migration.done": {"lost": "int"}}\n'
                ),
                "elastic/migration.py": (
                    '"""Doc."""\n'
                    "class Open:\n"
                    "    lost: float = 0.0\n"
                    "def other() -> None:\n"
                    '    lost: str = ""\n'
                    "def finish(log: object, count: int) -> None:\n"
                    "    lost = count\n"
                    '    log.emit("migration.done", lost=lost)\n'
                ),
            },
        )
        assert report.diagnostics == []

    @pytest.mark.parametrize(
        "body",
        [
            "    lost = None\n    if late:\n        lost = measure()\n",
            "    if late:\n        lost = measure()\n    else:\n"
            "        lost = None\n",
        ],
        ids=["init-then-reassign", "reassign-then-init"],
    )
    def test_r4_does_not_type_a_reassigned_name_by_its_initialiser(
        self, tmp_path, body
    ):
        # ``lost = None`` next to ``lost = measure()`` does not make the
        # emitted value null, whichever the walk meets first.
        report = self._scan(
            tmp_path,
            {
                "obs/events.py": (
                    '"""Doc."""\n'
                    'EVENT_SCHEMA = {"migration.done": {"lost": "int"}}\n'
                ),
                "elastic/migration.py": (
                    '"""Doc."""\n'
                    "def measure() -> int:\n"
                    "    return 5\n"
                    "def finish(log: object, late: bool) -> None:\n"
                    + body
                    + '    log.emit("migration.done", lost=lost)\n'
                ),
            },
        )
        assert report.diagnostics == []
