#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary, e.g.
#
#   bash benchmark/run.sh --workload reacquire --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh --seed 1        # all four workloads, both phases
#
# The Go build cache, module cache, temporary files and the binary all
# live under .bench_build/ in the current directory, so the build reads
# and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local

go -C "$root/benchmark" build -o "$build/thinlock-bench" .
exec "$build/thinlock-bench" "$@"
