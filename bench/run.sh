#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root; every argument is passed through:
#
#   bash bench/run.sh --workload sweep-long --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, its
# config and telemetry files) stays under .bench_build in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOPATH="$out/gopath"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go build -C bench -o "$out/hybridbench" .
exec "$out/hybridbench" "$@"
