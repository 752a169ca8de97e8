#!/usr/bin/env bash
# What a PR must pass, in one place, runnable in the dev container:
#
#   tools/gate.sh [BASE]        # BASE: the rev to compare with, default HEAD^
#
# Stages, cheapest first; the first failure stops the run and is named
# on the last line:
#
#   lint     python -m repro.analysis src/repro benchmarks, and the
#            typecheck ratchet
#   tier-1   the test suite, ten slowest printed (budget: <= 100 s here)
#   explore  the generated properties of the elastic control loop, the
#            replayed state, the batched engine (trains that step the
#            drawn chains: idle, calendar and folding tickers, the
#            last with private state, drawn delays and a horizon, all
#            compared with the tuple-granular run), the IC judge's floors
#            vs FT-Search's proof, the host scheduler vs its parent
#            oracle (`_ParentScheduler`), the release of a finished
#            tenant (no cyclic garbage), the SLO engine's sorted
#            latency drain vs a sketch fed one by one and FT-Search's
#            COST bound vs every completion of a partial assignment,
#            under Hypothesis's `explore` profile with a seed taken
#            from BASE's short sha
#            (printed, so a failure replays; budget: <= 30 s)
#   digests  tools/digests.sh on a `git archive BASE` tree and on the
#            working tree: the rows that moved are exactly those
#            tools/digests-moves.txt declares (none when it is empty)
#   figures  the gated benches under benchmarks/ (FIGURES below:
#            Figs. 3-6, the two ablations and ext_communication,
#            ~10 s) with their assertions as pass/fail; each must
#            regenerate its benchmarks/results/ file byte for byte (the
#            working tree's file is put back afterwards, so the stage
#            never edits it)
#   e2e      benchmarks/e2e/run.py --all on both trees, then --check:
#            no row `regressed`, no gated end-to-end metric `unresolved`
#
# A passing run then reports the net change in src/**/*.py lines (not a
# stage: it cannot fail), the number CHANGES.md quotes.
#
# The e2e stage only bounds regressions. A PR that claims a gain
# measures it with `tools/pairs.py BASE --pairs 10 --seed S`: alternating
# parent/change runs, per-metric medians, quartiles and wins, and with
# `--ledger PR` the BENCH_history.jsonl rows.
#
# A PR that means to move an observable byte declares each moved row in
# tools/digests-moves.txt as `scenario artifact reason`; a declared row
# that does not move fails as well, so the next PR empties the file
# again. .github/workflows/ci.yml only calls this script
# (tests/test_api_quality.py keeps it that way); nightly.yml holds what
# differs in scale, nothing else.
set -uo pipefail

cd "$(dirname "$0")/.."
base=$(git rev-parse --verify "${1:-HEAD^}^{commit}") || exit 2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base" && git archive "$base" | tar -x -C "$work/base" || exit 2
export PYTHONPATH="$PWD/src"

stage() {
    local name=$1 started=$SECONDS
    shift
    echo "== gate: $name"
    if ! "$@"; then
        echo "gate: FAILED at $name (after ${SECONDS} s)"
        exit 1
    fi
    echo "== gate: $name ok ($((SECONDS - started)) s)"
}

lint() {
    python -m repro.analysis src/repro benchmarks &&
        python -m repro.analysis.typecheck
}

explore() {
    local seed=$((16#$(git rev-parse --short "$base")))
    echo "explore: --hypothesis-seed=$seed"
    python -m pytest -x -q tests/elastic/test_autoscaler.py \
        tests/obs/test_replay.py tests/sim/test_generated_equivalence.py \
        tests/core/test_ic_consistency.py tests/dsps/test_hosts.py \
        tests/fleet/test_release.py tests/obs/test_drain.py \
        tests/optimizer/test_cost_bound.py \
        --hypothesis-profile=explore --hypothesis-seed="$seed"
}

digests() {
    tools/digests.sh "$work/base" >"$work/digests-base.txt" &&
        tools/digests.sh . >"$work/digests-head.txt" &&
        python - "$work/digests-base.txt" "$work/digests-head.txt" \
            tools/digests-moves.txt <<'EOF'
import sys

def table(path):
    return {tuple(line.split()[:2]): line for line in open(path)}

base, head = table(sys.argv[1]), table(sys.argv[2])
moved = {row for row in base.keys() | head.keys()
         if base.get(row) != head.get(row)}
declared = set()
for number, line in enumerate(open(sys.argv[3]), 1):
    fields = line.split("#", 1)[0].split(None, 2)
    if fields and len(fields) < 3:
        sys.exit(f"{sys.argv[3]}:{number}: want `scenario artifact reason`")
    if fields:
        declared.add(tuple(fields[:2]))
for row in sorted(moved - declared):
    print("digests: moved but not declared:", *row)
for row in sorted(declared - moved):
    print("digests: declared but identical:", *row)
print(f"{len(base.keys() | head.keys()) - len(moved)} rows identical,"
      f" {len(moved & declared)} moved as declared")
sys.exit(moved != declared)
EOF
}

# Every search of every bench runs under a node budget, so each results
# file is reproducible on any host and at any REPRO_JOBS. The stage runs
# the benches that fit its time: not yet the Figs. 9-12 grid and the two
# benches that search under its budget (fig9_bestcase, fig10_peak_output,
# fig11_failures, fig12_summary, ext_latency, ext_recovery), which take
# the whole stage to 73-76 s at REPRO_JOBS=2 on a 2-core container.
# fig3_pipeline also guards the one runner's deploy/run split (its CPU
# sampler attaches between the two steps).
FIGURES=(
    fig3_pipeline fig4_outcomes fig5_first_vs_optimal fig6_pruning
    ablation_pruning ablation_config_order ext_communication
)

figures() {
    local name paths=() status=0
    for name in "${FIGURES[@]}"; do
        cp "benchmarks/results/$name.txt" "$work/$name.txt" || return 1
        paths+=("benchmarks/test_$name.py")
    done
    python -m pytest -x -q "${paths[@]}" || status=1
    for name in "${FIGURES[@]}"; do
        diff -u "$work/$name.txt" "benchmarks/results/$name.txt" ||
            status=1
        cp "$work/$name.txt" "benchmarks/results/$name.txt"
    done
    return $status
}

e2e() {
    local gated
    gated=$(python -c 'import json; print("|".join(
        m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]))')
    (cd "$work/base" && PYTHONPATH= python benchmarks/e2e/run.py --all \
        --out "$work/e2e-base.json") &&
        python benchmarks/e2e/run.py --all --out "$work/e2e-head.json" &&
        python benchmarks/e2e/run.py --check \
            "$work/e2e-base.json" "$work/e2e-head.json" |
        tee "$work/check.txt" &&
        ! grep -E "^($gated) .* unresolved\$" "$work/check.txt"
}

stage lint lint
stage tier-1 python -m pytest -x -q --durations=10
stage explore explore
stage digests digests
stage figures figures
stage e2e e2e
python -c 'import pathlib, sys
base, head = (sum(len(path.read_text().splitlines())
                  for path in pathlib.Path(root, "src").rglob("*.py"))
              for root in sys.argv[1:])
print(f"gate: src/**/*.py {base} -> {head} lines ({head - base:+d})")' \
    "$work/base" .
echo "gate: passed against $(git rev-parse --short "$base") in ${SECONDS} s"
