#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload replay-heavy --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary and the Go build cache live in
# .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
