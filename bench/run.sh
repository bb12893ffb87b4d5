#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; every argument is passed to the benchmark, e.g.
#
#   bash bench/run.sh --workload point_hot --seed 3 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files all stay under
# .bench_build/ in the checkout, and no network is used.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

(cd "$root/bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
