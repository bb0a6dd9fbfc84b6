#!/usr/bin/env bash
# Builds rosperf from this checkout's sources and runs it with the given
# arguments, from the benchmark directory (so results land in
# benchmark/out). Every build artifact and temporary file, the Go build
# cache included, stays in .bench_build at the checkout root; nothing is
# fetched over the network.
#
#   bash benchmark/run.sh --workload read-canonical --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

mkdir -p "$GOTMPDIR"
cd "$here"
go build -o "$build/rosperf" ./cmd/rosperf
exec "$build/rosperf" "$@"
