#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload serve_grid --seed 7 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the runs write
# (Go build cache, binary, result files, spans) stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -f BENCHMARK.json ]]; then
	echo "perfbench: run from the repository root (go.mod, perfbench/go.mod and BENCHMARK.json)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
