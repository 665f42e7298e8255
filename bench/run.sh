#!/usr/bin/env bash
# BENCHMARK.json's command.  Builds ./bench from the checkout's source
# into .bench_build/ and runs it with the harness's arguments:
#
#   bash bench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, link temporaries, its
# own config) is pointed inside the checkout.  Outside a checkout of the
# module the build fails and the script exits non-zero without a result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
