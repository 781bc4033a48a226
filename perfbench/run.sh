#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload source-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build in the repository root.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
