#!/bin/sh
# loc.sh — the repository's one line count: non-test Go lines outside
# benchmarks/ (a module of its own), the total first, then per top-level
# directory. internal/dht/ringtest is a test library — only tests import
# it — so it is shown on a line of its own, apart from internal, though
# the total includes it. Standard tools only; print-only.
# Run from anywhere: ./scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
tab=$(printf '\t')
find . \( -path ./benchmarks -o \( -name '.?*' -type d \) \) -prune -o \
    -type f -name '*.go' ! -name '*_test.go' -exec wc -l {} + |
    awk -v OFS="$tab" '$2 != "total" {
        f = substr($2, 3)
        dir = "(root)"
        if (f ~ /^internal\/dht\/ringtest\//) dir = "internal/dht/ringtest (test library)"
        else if (index(f, "/")) dir = substr(f, 1, index(f, "/") - 1)
        lines[dir] += $1
        total += $1
    }
    END {
        print 0, "", sprintf("%7d  total non-test Go lines outside benchmarks/", total)
        for (d in lines) print 1, d, sprintf("%7d  %s", lines[d], d)
    }' |
    sort -t "$tab" -k1,1n -k2,2 | cut -f3
