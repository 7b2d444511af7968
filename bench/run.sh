#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it with the given
# arguments. Everything the build and the run leave behind stays in
# .bench_build/ at the root of the checkout: Go's build cache, temporary
# files and telemetry counters, the binaries, run stores and the span file.
set -euo pipefail

root="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its counters
# The benchmark has no dependency outside the checkout; never reach for one.
export GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
