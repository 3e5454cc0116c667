#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload sim-default --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build artefact (the Go build
# cache included) stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly GOTELEMETRY=off
go build -C benchmark -o "$out/earthplus-bench" .
exec "$out/earthplus-bench" "$@"
