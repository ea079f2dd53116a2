#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root. Build outputs and the Go build cache stay in
# .bench_build/ so the benchmark reads and writes only inside the checkout.
#
#   bash benchmark/run.sh --workload fleet-dense --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C benchmark build -buildvcs=false -o "$build/krisp-benchmark" .
exec "$build/krisp-benchmark" "$@"
