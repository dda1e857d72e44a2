#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it.
# Every build artifact (Go build cache, temp files, the binary) and every
# piece of generated state stays under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload autoscale-poll --seed 1 --seconds 24 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -root "$root" "$@"
