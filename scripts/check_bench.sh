#!/bin/sh
# check_bench.sh — the bench smoke gate run by CI. It regenerates
# figures of the internal/exp registry through dcdht-bench and holds
# each JSON document to its figure's schema and acceptance invariants
# (scripts/validate_bench): the consistency and recovery figures at toy
# scale; the workload, gateway, lookup and perf figures byte-compared
# against their committed BENCH_*.json; and the paper's own tables
# (§3.3 analysis, Figures 6–12, the ablations) with the repair and
# scenario figures at quick scale, every table required to print. A
# schema drift, a broken figure, a consistency level that stopped being
# cheaper than Current, a durable restart that stopped beating
# crash-and-forget, or a committed figure that moved without a
# regenerated baseline all fail this gate.
# Run from the repository root: ./scripts/check_bench.sh
#
# ./scripts/check_bench.sh -update regenerates the four committed
# baselines (BENCH_workload, BENCH_gateway, BENCH_lookup, BENCH_perf)
# with the very parameter lines the gate compares them at, writes them
# over the committed files, validates them and stops. Commit them with
# the change that moved them.
set -eu

update=false
case ${1:-} in
"") ;;
-update) update=true ;;
*)
    echo "usage: $0 [-update]" >&2
    exit 2 ;;
esac

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
go build -o "$out/dcdht-bench" ./cmd/dcdht-bench
go build -o "$out/validate_bench" ./scripts/validate_bench

# bench NAMES JSONDIR [key=value...] runs figures NAMES, with each
# key=value a -set, writing their documents into JSONDIR and their
# tables into JSONDIR.txt.
bench() {
    names=$1 dir=$2
    shift 2
    set -- $(for kv in "$@"; do printf -- '-set %s ' "$kv"; done)
    "$out/dcdht-bench" -figure "$names" "$@" -quiet -json "$dir" > "$dir.txt"
}

# figure NAME TITLE CHECK [key=value...] regenerates one figure and
# requires TITLE in its printed table. CHECK is what its document is
# held to beyond the figure's invariants:
#   -             nothing more
#   cmp:FILE      byte-identical to the committed FILE (with -update,
#                 written over FILE instead)
figure() {
    name=$1 title=$2 check=$3
    shift 3
    json="$out/$name/BENCH_$name.json"
    bench "$name" "$out/$name" "$@"
    grep -qF "$title" "$out/$name.txt" || {
        echo "check_bench: $name table missing from bench output" >&2
        exit 1
    }
    case $check in
    cmp:*)
        if $update; then
            cp "$json" "${check#cmp:}"
            echo "check_bench: rewrote ${check#cmp:}"
        else
            cmp -s "$json" "${check#cmp:}" || {
                echo "check_bench: ${check#cmp:} drifted from the committed baseline; regenerate it with ./scripts/check_bench.sh -update" >&2
                diff "$json" "${check#cmp:}" >&2 || true
                exit 1
            }
        fi ;;
    esac
    "$out/validate_bench" "$name" "$json"
}

# The committed baselines: every run is fully deterministic (simulated
# time, fixed seed), so any drift means the path changed behaviour —
# regenerate them with -update, which runs exactly these lines, and
# commit them alongside the change.
figure workload "Workload: throughput and latency quantiles" cmp:BENCH_workload.json \
    pattern=uniform peers=32 duration=45s concurrency=3
figure gateway "Gateway: hot-key coalescing front-end" cmp:BENCH_gateway.json
figure lookup "Lookup acceleration: chord vs chord+cache vs onehop" cmp:BENCH_lookup.json
figure perf "Perf: hot-path costs" cmp:BENCH_perf.json ops=12 peers=32 macro_ops=120

if $update; then
    echo "bench baselines rewritten: workload, gateway, lookup and perf"
    exit 0
fi

# 48 queries per level: the validator demands strictly fewer messages
# for bounded than for current, and that gap is the bounded reads served
# from a warm last-ts cache — about a quarter of them at this scale, so
# the ordering rests on a dozen hits rather than on one.
figure consistency "Consistency: retrieval cost vs observed currency" - peers=32 queries=48 duration=6m

figure recovery "Recovery: crash-and-forget vs durable restart" - peers=30 queries=16 duration=20m

# The paper's figures, the ablations and the repair and scenario
# figures at quick scale (about three minutes on one core): every table
# must print, and the two documents pass their checks.
bench analysis,6,7,8,9,10,11,12,ablations,repair,scenario "$out/paper"
for title in "Analysis (§3.3)" "Analysis (§4.2.2)" "Figure 6:" "Figure 7:" "Figure 8:" \
    "Figure 9:" "Figure 10:" "Figure 11:" "Figure 12:" "Ablation (§4.3)" \
    "Ablation: Chord successor-list" "Ablation: replica handoff" "Repair:" "Scenarios:"; do
    grep -qF "$title" "$out/paper.txt" || {
        echo "check_bench: table \"$title\" missing from bench output" >&2
        exit 1
    }
done
for name in repair scenario; do
    "$out/validate_bench" "$name" "$out/paper/BENCH_$name.json"
done

echo "bench check clean: consistency, recovery, workload, gateway, lookup and perf figures validate against their invariants and baselines; the paper's figures, ablations, repair and scenario regenerate"
