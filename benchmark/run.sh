#!/usr/bin/env bash
# Builds the benchmark program from the source tree it is run in, then runs
# one workload. Run it from the repository root:
#
#   bash benchmark/run.sh --workload fleet-20k --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in the current
# directory: the Go build cache, the go command's configuration and telemetry
# directories and temporary files included.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f benchmark/go.mod ]]; then
	echo "benchmark: run from the repository root (go.mod, internal/ and benchmark/ must be present)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd benchmark && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" -work "$out" "$@"
