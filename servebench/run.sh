#!/usr/bin/env bash
# Builds ninecd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload encode-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout:
# the Go build cache, module cache and home directory are pointed there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOFLAGS= GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# With telemetry on (the default mode "local"), the go command starts a
# detached child that outlives it; mode "off" keeps the build to one
# process that has ended when go returns.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/ninecd" ./cmd/ninecd >&2
(cd servebench && go build -o "$out/servebench" .) >&2
exec "$out/servebench" --ninecd "$out/ninecd" --out "$out" "$@"
