#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write stays inside the checkout: the Go build cache, module
# cache and temporary files go under .bench_build, traces and the durable
# nodes' logs under benchmarks/out. Arguments go to the benchmark.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# The program under test is the module at the checkout root; without it
# there is nothing to measure.
if [ ! -f "$root/go.mod" ]; then
    echo "benchmark: no go.mod at $root: the program to measure is missing" >&2
    exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-mod" "$build/go-path" "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
# The toolchain keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"

go build -C "$root/benchmarks" -o "$build/dcdht-benchmark" .
exec "$build/dcdht-benchmark" "$@"
