#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload tcp-flood --seed 1 --seconds 10 --trace 0
# The build cache, binary, result records and span files all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off
mkdir -p "$GOTMPDIR"

mkdir -p "$build/bin"
bin="$build/bin/perfbench"
(cd "$root/perfbench" && go build -o "$bin.tmp.$$" .) || { rm -f "$bin.tmp.$$"; exit 1; }
mv -f "$bin.tmp.$$" "$bin"
exec "$bin" --out "$build/results" "$@"
