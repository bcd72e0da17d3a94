#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Every argument goes to the benchmark (see bench/README.md). The build
# cache and binary live in .bench_build/ under the root, so nothing is
# read or written outside the checkout apart from the Go toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
