#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --workload churn --runs 10
# Run it from the repository root. The Go build cache and module cache
# stay inside .bench_build, so the build reads and writes nothing outside
# the checkout but the Go toolchain itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
