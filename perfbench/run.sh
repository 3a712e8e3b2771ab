#!/usr/bin/env bash
# Builds leo-runtime and the benchmark from source into .bench_build, then
# runs one benchmark invocation with the given arguments:
#
#   bash perfbench/run.sh --workload fleet-small-plans --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Every file it writes, the Go build
# cache included, stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/leo-runtime" ./cmd/leo-runtime >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" -server "$out/leo-runtime" "$@"
