#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source, then
# run it with the caller's arguments. Run from the root of a checkout.
# Everything the build writes (binary, Go build cache, temporary files) stays
# under .bench_build in the checkout. In a directory without the repository's
# sources the build fails and so does this script.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local

go build -o "$build/meerkat-benchmark" ./benchmark
exec "$build/meerkat-benchmark" "$@"
