#!/usr/bin/env bash
# Builds the benchmark from the module's sources and runs it:
#
#   bash squidbench/run.sh --workload paper-serve --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build at
# the module root: the Go build cache, the binary, the cached
# million-row database, WAL scratch directories and span logs.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/bin/squidbench" ./squidbench
exec "$build/bin/squidbench" "$@"
