#!/usr/bin/env bash
# Builds ctdbd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash ctdbbench/run.sh --workload query --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache live in .bench_build/ so the
# benchmark writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ctdbd || ! -f ctdbbench/go.mod ]]; then
	echo "ctdbbench: run from the repository root (go.mod, cmd/ctdbd and ctdbbench/ must exist)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go build -o "$out/ctdbd" ./cmd/ctdbd
(cd ctdbbench && go build -o "$out/ctdbbench" .)
exec "$out/ctdbbench" -ctdbd "$out/ctdbd" -work "$out/work" "$@"
