#!/usr/bin/env bash
# Builds mdmd and the benchmark program from the checkout, then runs one
# workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload walk-evolution --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

# With telemetry on (the default in a fresh config directory) every go
# command may start a detached telemetry process that outlives this
# script. "go telemetry off" is the one go command that starts none.
go telemetry off

go build -o "$build/mdmd" ./cmd/mdmd
(cd perfbench && go build -o "$build/perfbench" .)

args=()
while [ $# -gt 0 ]; do
  case $1 in
    --workload|--seed|--seconds|--trace) args+=("-${1#--}" "$2"); shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
exec "$build/perfbench" "${args[@]}" -mdmd "$build/mdmd" -build "$build"
