#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload apsp-160 --seed 1 --seconds 12 --trace 0
#
# It builds ./benchmark from the checkout's own source into .bench_build/
# (the Go build cache lives there too, so nothing is written outside the
# checkout) and runs it with the arguments given. The program builds
# cmd/ccserve the same way when a workload needs the daemon.
set -euo pipefail
export GOCACHE="$PWD/.bench_build/go-cache" GOMODCACHE="$PWD/.bench_build/go-mod" GOTOOLCHAIN=local
mkdir -p .bench_build
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
