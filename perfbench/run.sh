#!/usr/bin/env bash
# Builds the service benchmark from the checkout's sources and runs it
# with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload digest-n4 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
