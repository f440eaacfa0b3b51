#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/e2e/run.sh --workload collect-mem --seed 1 --seconds 20 --trace 0
#
# Everything it writes — the Go build cache, the binary, the data dirs of the
# run — goes under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/../.." && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
go build -C "$here" -o "$build/e2e-bench" .
exec "$build/e2e-bench" -tmp "$build/e2e" "$@"
