#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, forwarding
# every argument (see perfbench/README.md). Run it from the repository root:
#
#   bash perfbench/run.sh --workload core-mix --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout:
# the Go build cache, the binary and the benchmark's scratch stores.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
