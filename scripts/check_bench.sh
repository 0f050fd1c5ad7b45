#!/bin/sh
# check_bench.sh — the bench smoke gate run by CI: regenerate the
# consistency, recovery, workload, gateway, lookup and perf figures at
# toy scale and validate the emitted BENCH_*.json files against the
# documented schemas and acceptance invariants (scripts/validate_bench),
# byte-comparing the deterministic exports against committed baselines.
# A schema drift, a broken figure, a consistency level that stopped
# being cheaper than Current, a durable restart that stopped beating
# crash-and-forget, or a perf hot-path whose deterministic costs moved
# without a regenerated baseline all fail this gate.
# Run from the repository root: ./scripts/check_bench.sh
set -eu

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# figure NAME TITLE JSONFLAG CHECK BASELINE [bench flags...] regenerates
# one figure into $out/BENCH_NAME.json and requires TITLE in the printed
# table. CHECK picks what the export is then held to:
#   validate  schema and acceptance invariants (validate_bench)
#   replay    a same-seed rerun must be bit-identical, then validate
#   cmp       byte-identical to the committed BASELINE
# Under validate and replay a BASELINE other than "-" goes to
# validate_bench too: its deterministic fields must match exactly.
figure() {
    name=$1 title=$2 jsonflag=$3 check=$4 baseline=$5
    shift 5
    json="$out/BENCH_$name.json"
    go run ./cmd/dcdht-bench -figure "$name" "$@" -quiet "$jsonflag" "$json" > "$out/$name.txt"
    grep -q "$title" "$out/$name.txt" || {
        echo "check_bench: $name table missing from bench output" >&2
        exit 1
    }
    if [ "$check" = cmp ]; then
        cmp -s "$json" "$baseline" || {
            echo "check_bench: $baseline drifted from the committed baseline" >&2
            diff "$json" "$baseline" >&2 || true
            exit 1
        }
        return
    fi
    if [ "$check" = replay ]; then
        go run ./cmd/dcdht-bench -figure "$name" "$@" -quiet "$jsonflag" "$out/BENCH_${name}2.json" > /dev/null
        cmp -s "$json" "$out/BENCH_${name}2.json" || {
            echo "check_bench: $name figure is not deterministic across same-seed runs" >&2
            diff "$json" "$out/BENCH_${name}2.json" >&2 || true
            exit 1
        }
    fi
    if [ "$baseline" = - ]; then
        go run ./scripts/validate_bench "$json"
    else
        go run ./scripts/validate_bench "$json" "$baseline"
    fi
}

# 48 queries per level: the validator demands strictly fewer messages
# for bounded than for current, and that gap is the bounded reads served
# from a warm last-ts cache — about a quarter of them at this scale, so
# the ordering rests on a dozen hits rather than on one.
figure consistency "Consistency: retrieval cost vs observed currency" -consistency-json validate - \
    -consistency-peers 32 -consistency-queries 48 -consistency-duration 6m

figure recovery "Recovery: crash-and-forget vs durable restart" -recovery-json validate - \
    -recovery-peers 30 -recovery-queries 16 -recovery-duration 20m

# Workload baseline: the run is fully deterministic (simulated time,
# fixed seed), so any drift from the committed BENCH_workload.json means
# the workload path changed behaviour — regenerate the baseline with
# these flags and commit it alongside the change.
figure workload "Workload: throughput and latency quantiles" -workload-json cmp BENCH_workload.json \
    -workload uniform -workload-peers 32 -duration 45s -concurrency 3

# Gateway: KTS strictly fewer through the gateway, coalescing at least
# 2x; any nondeterminism in the coalescing/balancing path breaks the
# replay.
figure gateway "Gateway: hot-key coalescing front-end" -gateway-json replay - \
    -gateway-peers 60 -gateway-ops 300

# Lookup acceleration, the three-arm routing comparison (chord /
# chord+cache / onehop): onehop within the 1.1-hop ceiling and strictly
# below chord; resolving as an operation does (guess from routing state
# and learned arcs, else lookup) never worse than the lookup alone, with
# learned arcs answering; zero wrong-owner resolutions.
figure lookup "Lookup acceleration: chord vs chord+cache vs onehop" -lookup-json replay - \
    -lookup-peers 24 -lookup-samples 40 -lookup-churn 2 -lookup-warmup 2m -lookup-maint 1m

# Perf: replayed with the host-dependent timing fields stripped, then
# the deterministic fields are validated against the committed
# BENCH_perf.json exactly. To refresh the baseline after an intended
# behaviour change, run the same command without -perf-strip-timing
# (keeping one machine's timing as a trajectory record) and commit the
# output as BENCH_perf.json:
#   go run ./cmd/dcdht-bench -figure perf \
#       -perf-ops 12 -perf-peers 32 -perf-kernel-events 10 \
#       -perf-macro-ops 120 -quiet -perf-json BENCH_perf.json
figure perf "Perf: hot-path costs" -perf-json replay BENCH_perf.json \
    -perf-ops 12 -perf-peers 32 -perf-kernel-events 10 -perf-macro-ops 120 -perf-strip-timing

echo "bench check clean: consistency, recovery, workload, gateway, lookup and perf figures regenerate and validate at toy scale"
