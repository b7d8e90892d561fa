#!/usr/bin/env bash
# Builds qucloudd and the benchmark driver from this checkout, then runs
# the driver. Every build artifact, cache and run directory stays under
# .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload tiny-poisson --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# With a fresh config dir the go command's telemetry mode defaults to
# "local", and each go command may fork a detached telemetry child that
# outlives it. Mode "off" starts no child, so no process survives the run.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"
if [ ! -f go.mod ] || [ ! -d cmd/qucloudd ]; then
	echo "run.sh: run from the root of a repository checkout (no go.mod or cmd/qucloudd here)" >&2
	exit 2
fi
go build -o "$out/qucloudd" ./cmd/qucloudd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -daemon "$out/qucloudd" -workdir "$out/run" "$@"
