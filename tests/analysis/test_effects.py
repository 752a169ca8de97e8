"""The R1/R2/R3 classifiers, one primitive at a time.

The fixture corpus (test_rules.py) pins whole files; these pin the
classifier answers on single expressions, so a regression names the
construct that stopped (or started) counting as a primitive.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.effects import (
    iter_iteration_sites,
    iter_unseeded_calls,
    iter_wallclock_calls,
)
from repro.analysis.facts import FileFacts, collect_facts


def _facts(tmp_path: Path, source: str) -> FileFacts:
    path = tmp_path / "mod.py"
    path.write_text('"""Doc."""\n' + source)
    return collect_facts(path, str(path))


class TestIntrinsicSites:
    def test_wallclock_read_is_a_site(self, tmp_path):
        facts = _facts(
            tmp_path,
            "import time\n"
            "def stamp() -> float:\n"
            "    return time.time()\n",
        )
        ((call, target),) = iter_wallclock_calls(facts)
        assert (call.lineno, target) == (4, "time.time")

    def test_aliased_and_from_imported_reads_resolve(self, tmp_path):
        facts = _facts(
            tmp_path,
            "import time\n"
            "from time import perf_counter as pc\n"
            "tick = time.monotonic\n"
            "a = tick()\n"
            "b = pc()\n",
        )
        targets = [target for _, target in iter_wallclock_calls(facts)]
        assert targets == ["time.monotonic", "time.perf_counter"]

    def test_a_deadline_comparison_is_still_a_site(self, tmp_path):
        # Whether the value escapes is the reader's call (and the
        # waiver's reason), not the classifier's.
        facts = _facts(
            tmp_path,
            "import time\n"
            "def expired(deadline: float) -> bool:\n"
            "    return time.monotonic() > deadline\n",
        )
        assert len(list(iter_wallclock_calls(facts))) == 1

    def test_module_level_rng_draw_is_a_site(self, tmp_path):
        facts = _facts(
            tmp_path,
            "import random\n"
            "def draw() -> float:\n"
            "    return random.random()\n",
        )
        ((call, message),) = iter_unseeded_calls(facts)
        assert call.lineno == 4
        assert "shared module-level RNG" in message

    def test_seeded_constructors_are_not_sites(self, tmp_path):
        facts = _facts(
            tmp_path,
            "import random\n"
            "import numpy as np\n"
            "a = random.Random(7)\n"
            "b = np.random.default_rng(seed=7)\n"
            "c = a.random()\n",
        )
        assert list(iter_unseeded_calls(facts)) == []

    def test_set_algebra_by_method_and_by_operator(self, tmp_path):
        facts = _facts(
            tmp_path,
            "def f(a: list, b: list) -> list:\n"
            "    out = [x for x in set(a).union(b)]\n"
            "    out += [x for x in set(a) | set(b)]\n"
            "    for x in set(a) - set(b):\n"
            "        out.append(x)\n"
            "    out += list(set(a) & set(b))\n"
            "    out += tuple(set(a) ^ set(b))\n"
            "    return out\n",
        )
        lines = [node.lineno for node, _ in iter_iteration_sites(facts)]
        assert sorted(lines) == [3, 4, 5, 7, 8]

    def test_arithmetic_on_non_sets_is_not_a_site(self, tmp_path):
        facts = _facts(
            tmp_path,
            "def f(a: int, b: int, rows: list) -> list:\n"
            "    return [r for r in rows[a - b :]] + list(range(a | b))\n",
        )
        assert list(iter_iteration_sites(facts)) == []

    def test_order_neutral_consumers_are_not_sites(self, tmp_path):
        facts = _facts(
            tmp_path,
            "def f(a: list, b: list) -> int:\n"
            "    for x in sorted(set(a) - set(b)):\n"
            "        pass\n"
            "    return len(set(a) | set(b)) + sum(x for x in set(a))\n",
        )
        lines = [node.lineno for node, _ in iter_iteration_sites(facts)]
        # sum() over a generator: the generator is the comprehension
        # position, and sum() around it neutralizes the order.
        assert lines == []
