#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it. This
# is the command BENCHMARK.json names; the driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the root of a checkout. bench/ is a module of its own
# (bench/go.mod) that builds against the checkout around it. Everything
# the build and the run write stays inside that checkout: the go build
# cache, the binary, the store directories (.bench_build/) and the trace
# files (bench/out/).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a gadget checkout (no go.mod here)" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -C bench -o "$build/gadget-bench" .
exec "$build/gadget-bench" "$@"
