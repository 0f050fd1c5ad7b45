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

# 48 queries per level: the validator demands strictly fewer messages
# for bounded than for current, and that gap is the bounded reads served
# from a warm last-ts cache — about a quarter of them at this scale, so
# the ordering rests on a dozen hits rather than on one.
go run ./cmd/dcdht-bench \
    -figure consistency \
    -consistency-peers 32 -consistency-queries 48 -consistency-duration 6m \
    -quiet \
    -consistency-json "$out/BENCH_consistency.json" > "$out/table.txt"

grep -q "Consistency: retrieval cost vs observed currency" "$out/table.txt" || {
    echo "check_bench: consistency table missing from bench output" >&2
    exit 1
}

go run ./scripts/validate_bench "$out/BENCH_consistency.json"

go run ./cmd/dcdht-bench \
    -figure recovery \
    -recovery-peers 30 -recovery-queries 16 -recovery-duration 20m \
    -quiet \
    -recovery-json "$out/BENCH_recovery.json" > "$out/recovery.txt"

grep -q "Recovery: crash-and-forget vs durable restart" "$out/recovery.txt" || {
    echo "check_bench: recovery table missing from bench output" >&2
    exit 1
}

go run ./scripts/validate_bench "$out/BENCH_recovery.json"

# Workload baseline: regenerate the toy-scale workload figure and
# byte-compare against the committed BENCH_workload.json. The run is
# fully deterministic (simulated time, fixed seed), so any drift means
# the workload path changed behaviour — regenerate the baseline with
# the exact command below and commit it alongside the change.
go run ./cmd/dcdht-bench \
    -figure workload \
    -workload uniform \
    -workload-peers 32 -duration 45s -concurrency 3 \
    -quiet \
    -workload-json "$out/BENCH_workload.json" > "$out/workload.txt"

grep -q "Workload: throughput and latency quantiles" "$out/workload.txt" || {
    echo "check_bench: workload table missing from bench output" >&2
    exit 1
}

cmp -s "$out/BENCH_workload.json" BENCH_workload.json || {
    echo "check_bench: BENCH_workload.json drifted from the committed baseline" >&2
    diff "$out/BENCH_workload.json" BENCH_workload.json >&2 || true
    exit 1
}

# Gateway determinism: regenerate the toy-scale gateway figure twice on
# the same seed and require bit-identical JSON, then validate it (KTS
# strictly fewer through the gateway, coalescing at least 2x). Any
# nondeterminism in the coalescing/balancing path breaks the cmp.
go run ./cmd/dcdht-bench \
    -figure gateway \
    -gateway-peers 60 -gateway-ops 300 \
    -quiet \
    -gateway-json "$out/BENCH_gateway.json" > "$out/gateway.txt"

grep -q "Gateway: hot-key coalescing front-end" "$out/gateway.txt" || {
    echo "check_bench: gateway table missing from bench output" >&2
    exit 1
}

go run ./cmd/dcdht-bench \
    -figure gateway \
    -gateway-peers 60 -gateway-ops 300 \
    -quiet \
    -gateway-json "$out/BENCH_gateway2.json" > /dev/null

cmp -s "$out/BENCH_gateway.json" "$out/BENCH_gateway2.json" || {
    echo "check_bench: gateway figure is not deterministic across same-seed runs" >&2
    diff "$out/BENCH_gateway.json" "$out/BENCH_gateway2.json" >&2 || true
    exit 1
}

go run ./scripts/validate_bench "$out/BENCH_gateway.json"

# Lookup acceleration: regenerate the three-arm routing comparison
# (chord / chord+cache / onehop) at toy scale twice on the same seed,
# require bit-identical JSON, then validate the orderings (onehop within
# the 1.1-hop ceiling and strictly below chord; the cache never worse
# than the ring it wraps; zero wrong-owner resolutions).
go run ./cmd/dcdht-bench \
    -figure lookup \
    -lookup-peers 24 -lookup-samples 40 -lookup-churn 2 \
    -lookup-warmup 2m -lookup-maint 1m \
    -quiet \
    -lookup-json "$out/BENCH_lookup.json" > "$out/lookup.txt"

grep -q "Lookup acceleration: chord vs chord+cache vs onehop" "$out/lookup.txt" || {
    echo "check_bench: lookup table missing from bench output" >&2
    exit 1
}

go run ./cmd/dcdht-bench \
    -figure lookup \
    -lookup-peers 24 -lookup-samples 40 -lookup-churn 2 \
    -lookup-warmup 2m -lookup-maint 1m \
    -quiet \
    -lookup-json "$out/BENCH_lookup2.json" > /dev/null

cmp -s "$out/BENCH_lookup.json" "$out/BENCH_lookup2.json" || {
    echo "check_bench: lookup figure is not deterministic across same-seed runs" >&2
    diff "$out/BENCH_lookup.json" "$out/BENCH_lookup2.json" >&2 || true
    exit 1
}

go run ./scripts/validate_bench "$out/BENCH_lookup.json"

# Perf determinism and baseline: regenerate the toy-scale perf figure
# twice with the host-dependent timing fields stripped and require
# bit-identical JSON, then validate the deterministic fields against
# the committed BENCH_perf.json exactly. To refresh the baseline after
# an intended behaviour change, run the same command without
# -perf-strip-timing (keeping one machine's timing as a trajectory
# record) and commit the output as BENCH_perf.json:
#   go run ./cmd/dcdht-bench -figure perf \
#       -perf-ops 12 -perf-peers 32 -perf-kernel-events 10 \
#       -perf-macro-ops 120 -quiet -perf-json BENCH_perf.json
go run ./cmd/dcdht-bench \
    -figure perf \
    -perf-ops 12 -perf-peers 32 -perf-kernel-events 10 \
    -perf-macro-ops 120 \
    -perf-strip-timing \
    -quiet \
    -perf-json "$out/BENCH_perf.json" > "$out/perf.txt"

grep -q "Perf: hot-path costs" "$out/perf.txt" || {
    echo "check_bench: perf table missing from bench output" >&2
    exit 1
}

go run ./cmd/dcdht-bench \
    -figure perf \
    -perf-ops 12 -perf-peers 32 -perf-kernel-events 10 \
    -perf-macro-ops 120 \
    -perf-strip-timing \
    -quiet \
    -perf-json "$out/BENCH_perf2.json" > /dev/null

cmp -s "$out/BENCH_perf.json" "$out/BENCH_perf2.json" || {
    echo "check_bench: perf figure is not deterministic across same-seed runs" >&2
    diff "$out/BENCH_perf.json" "$out/BENCH_perf2.json" >&2 || true
    exit 1
}

go run ./scripts/validate_bench "$out/BENCH_perf.json" BENCH_perf.json

echo "bench check clean: consistency, recovery, workload, gateway, lookup and perf figures regenerate and validate at toy scale"
