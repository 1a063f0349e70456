#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on:
#
#   bash perfbench/run.sh --workload table3-iq --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files and the binary stay in .bench_build
# at the root. The first run builds the standard library into that
# cache, which takes a minute or so.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
