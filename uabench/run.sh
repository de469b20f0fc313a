#!/usr/bin/env bash
# Builds the benchmark from the checkout that holds this directory and runs
# it with the given arguments. The Go build cache, the binary, spill files
# and traces all stay under .bench_build/ at the root of the checkout.
#
#   bash uabench/run.sh --workload pdbench --seed 1 --seconds 12 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps its settings and telemetry counters under the user
# config directory; point it into the build directory too.
export XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$build/uabench" .)
cd "$root"
exec "$build/uabench" "$@"
