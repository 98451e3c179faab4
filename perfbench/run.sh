#!/usr/bin/env bash
# Builds the benchmark and the corund daemon from the sources of the
# checkout it is started in, then runs the benchmark with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Everything it builds, caches and writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The go command keeps its config and telemetry counters under the
# user config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR" "$build/bin" "$XDG_CONFIG_HOME/go/telemetry"
# With telemetry in its default local mode the go command starts a
# detached sidecar process that outlives this script; turn it off.
printf 'off' >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bin/corund" ./cmd/corund >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -corund "$build/bin/corund" -out "$build" "$@"
