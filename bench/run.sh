#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build leaves behind (Go's build and module caches, the
# binary) stays in .bench_build at the root of the checkout, so a run
# reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false XDG_CONFIG_HOME="$build/config"
go build -C "$here" -o "$build/bench" .
exec "$build/bench" "$@"
