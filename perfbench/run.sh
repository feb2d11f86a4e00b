#!/usr/bin/env bash
# Builds the hsmodel benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload serve_read --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# traced runs' span dumps all go under .bench_build/ in the working directory,
# so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod"
# The go command keeps its settings and telemetry counters under the user
# config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
