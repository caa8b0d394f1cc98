#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run from and executes it.
# Everything the Go toolchain writes (build cache, temp files, the binary)
# stays under .bench_build in that checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/ahi-benchmark" .
exec "$build/ahi-benchmark" "$@"
