#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload wire-read-zipf --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans stay
# under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The toolchain's per-user files (environment, telemetry) go there too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOENV=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
