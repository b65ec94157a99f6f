#!/bin/sh
# BENCHMARK.json's command. Everything the Go toolchain writes (build
# cache, temporary files) is kept inside the checkout, under the same
# .bench_build the benchmark uses for the child binary and its data
# directories; all arguments go to ./benchmarks/e2e.
set -e
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
exec go run ./benchmarks/e2e "$@"
