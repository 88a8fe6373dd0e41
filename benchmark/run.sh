#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given, e.g.
#
#   bash benchmark/run.sh --workload rt_small --seed 1 --seconds 20 --trace 0
#
# Nothing is written outside the checkout: the Go build cache, module
# cache and the toolchain's own config directory all live under
# .bench_build/. Fails, printing no result, where the repository's
# sources are missing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
(cd "$here" && go build -o "$build/memif-benchmark" .)
exec "$build/memif-benchmark" -out "$here/out" "$@"
