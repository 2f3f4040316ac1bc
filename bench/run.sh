#!/usr/bin/env bash
# Fleet benchmark entry point. Run from the repository root:
#
#   bash bench/run.sh --workload paper_miss --seed 1 --seconds 25 --trace 0
#
# Builds cmd/slrhd, cmd/slrhrouter and the benchmark driver from the tree
# it runs in (build time is not measured), then hands every argument to
# the driver. Everything the build and the run write stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home/.config/go/telemetry"
# With telemetry on (the default "local" mode), every go command may fork
# a detached upload sidecar that outlives this script. Turn it off for the
# private config directory below before the first go command runs.
echo off > "$out/home/.config/go/telemetry/mode"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOPATH="$out/home/go"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go build -o "$out/bin/slrhd" ./cmd/slrhd
go build -o "$out/bin/slrhrouter" ./cmd/slrhrouter
(cd bench && go build -o "$out/bin/fleetbench" .)

exec "$out/bin/fleetbench" -bin "$out/bin" "$@"
