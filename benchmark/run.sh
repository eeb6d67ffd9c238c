#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument goes to the binary (see README.md). Build products and the Go
# caches stay under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/replobj-benchmark" .
cd "$root"
exec "$build/replobj-benchmark" "$@"
