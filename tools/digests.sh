#!/usr/bin/env bash
# The byte-identity table: every artifact the scenario subcommands
# write, as one `scenario artifact sha256` row each.
#
#   tools/digests.sh [CHECKOUT] > table.txt
#
# Run it on two checkouts and `diff` the tables to show a change moved
# no observable byte (`tools/gate.sh` does, parent vs working tree):
#
#   git archive HEAD^ | tar -x -C /tmp/parent
#   diff <(tools/digests.sh /tmp/parent) <(tools/digests.sh .)
#
# Within one checkout the script itself requires the execution-mode
# twins to agree — batched == `--tuple-granular` == `--jobs 2` on the
# static and the elastic `repro fleet --dataplane` (chain tenants:
# closed-form trains), default == `--batched` == `--jobs 2` on `repro
# chaos run` and `repro obs` (LAAR bundles: the engine's kernel path;
# both fan out through `run_campaigns`) — and exits 1 if they do not.
#
# Every data-plane run also gets a `<scenario> fleet_sha256 <hex>` row,
# read from the `fleet sha256:` line it prints: the chain of every
# tenant's event-log hash, so the row holds still while the document
# around it changes shape, and moves only if an event byte does.
#
# JSON documents are hashed without the blocks that legitimately differ
# between modes or runs: the batched engine's own counters (`engine`),
# the mode flag (`batching`) and wall-clock (`fabric`). Event streams
# and stdout are hashed as written.
set -euo pipefail

checkout=$(cd "${1:-.}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"  # reports record the out-dir they were given: keep it relative
export PYTHONPATH="$checkout/src"
export PYTHONHASHSEED=0
repro() { python -m repro "$@"; }

sha() { sha256sum "$1" | cut -d' ' -f1; }

# sha256 of a JSON document minus its mode- and wall-clock-dependent keys
json_sha() {
    python - "$1" <<'EOF'
import hashlib, json, sys

def strip(node):
    if isinstance(node, dict):
        return {
            key: strip(value)
            for key, value in node.items()
            if key not in ("engine", "batching", "fabric")
        }
    if isinstance(node, list):
        return [strip(item) for item in node]
    return node

document = strip(json.load(open(sys.argv[1])))
text = json.dumps(document, sort_keys=True, separators=(",", ":"))
print(hashlib.sha256(text.encode()).hexdigest())
EOF
}

# rows for every artifact in a directory: `<scenario> <file> <sha256>`
rows() {
    local scenario=$1 dir=$2 file
    for file in $(cd "$dir" && ls | sort -V); do
        case "$file" in
            *.json) echo "$scenario $file $(json_sha "$dir/$file")" ;;
            *) echo "$scenario $file $(sha "$dir/$file")" ;;
        esac
    done
}

# run a mode twin (`twin <scenario> <label> <command...>`) and require
# the same rows as the default mode; it runs in its own directory so
# the out-dir, which reports record, keeps its name
twin() {
    local scenario=$1 label=$2
    shift 2
    mkdir -p "$label"
    (cd "$label" && repro "$@" --out-dir "$scenario" >/dev/null)
    if ! diff <(rows "$scenario" "$scenario") \
              <(rows "$scenario" "$label/$scenario") >&2; then
        echo "$scenario: $label differs from the default mode" >&2
        exit 1
    fi
    echo "$scenario $label identical"
}

# run a data-plane fleet (`dataplane <scenario> <flags...>`): its rows
# and its fleet_sha256 row
dataplane() {
    local scenario=$1 fleet_sha
    shift
    repro fleet --dataplane "$@" --jobs 1 --out-dir "$scenario" \
        >"$scenario.stdout"
    rows "$scenario" "$scenario"
    fleet_sha=$(sed -n 's/^fleet sha256: //p' "$scenario.stdout")
    if [[ -z $fleet_sha ]]; then
        echo "$scenario: no 'fleet sha256:' line" >&2
        exit 1
    fi
    echo "$scenario fleet_sha256 $fleet_sha"
}

# --- fleet data plane, static and elastic -----------------------------
dataplane fleet-dataplane --tenants 50
dataplane fleet-dataplane-elastic --elastic --tenants 50

# --- small static and elastic fleets: default, tuple-granular, two
# workers (`elastic` and `slo` name their parameter sets)
for scenario in elastic slo; do
    case $scenario in
        elastic) shape=(--elastic --tenants 8 --duration 12 --chaos-every 4) ;;
        slo) shape=(--tenants 10 --duration 30 --chaos-every 4) ;;
    esac
    dataplane "$scenario" "${shape[@]}"
    twin "$scenario" tuple-granular \
        fleet --dataplane "${shape[@]}" --jobs 1 --tuple-granular
    twin "$scenario" jobs-2 fleet --dataplane "${shape[@]}" --jobs 2
done

# --- chaos campaigns ----------------------------------------------------
repro chaos run --campaigns 5 --jobs 1 --out-dir chaos >chaos.stdout
rows chaos chaos
echo "chaos stdout $(sha chaos.stdout)"
twin chaos batched chaos run --campaigns 5 --jobs 1 --batched
twin chaos jobs-2 chaos run --campaigns 5 --jobs 2

# --- observed runs (none / worst / crash) -------------------------------
repro generate --seed 3 --pes 10 --hosts 4 --cores-per-host 5 \
    --out bundle.json >/dev/null
repro obs bundle.json --ic 0.5 --jobs 1 --out-dir obs >/dev/null
rows obs obs
for label in batched jobs-2; do  # reports record the bundle path given
    mkdir -p "$label" && cp bundle.json "$label/"
done
twin obs batched obs bundle.json --ic 0.5 --jobs 1 --batched
twin obs jobs-2 obs bundle.json --ic 0.5 --jobs 2

# --- fleet control plane ------------------------------------------------
repro fleet --tenants 30 --jobs 1 --out-dir fleet >fleet.stdout
rows fleet fleet
echo "fleet stdout $(sha fleet.stdout)"
