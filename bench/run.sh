#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload tree-50k --seed 7 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache and the binary) stays in
# .bench_build/ under the current directory, and the Go tool is kept from
# reaching the network or reading the user's Go settings.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go -C bench build -o "$out/rmbench" .
exec "$out/rmbench" "$@"
