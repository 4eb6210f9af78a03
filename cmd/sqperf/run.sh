#!/usr/bin/env bash
# Builds sqperf from the sources of the checkout it sits in and runs it
# from the checkout root with the given arguments, for example:
#
#   bash cmd/sqperf/run.sh --workload pair --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary work
# directories, module and telemetry state) stays under .bench_build in the
# checkout, and the binary replaces this shell so no process outlives it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/cmd/sqperf" && go build -o "$out/sqperf" .)
cd "$root"
exec "$out/sqperf" "$@"
