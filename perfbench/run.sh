#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload live-node-failover --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache
# stay under .bench_build/ (or $CARGO_TARGET_DIR when set), and the build
# never reaches the network.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
