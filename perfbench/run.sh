#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of a divlab checkout:
#
#   bash perfbench/run.sh --workload sim-1core --seed 1 --seconds 20 --trace 0
#
# Build outputs, every cache the Go tool writes and the benchmark's scratch
# result stores and spans stay under the build directory ($CARGO_TARGET_DIR,
# default .bench_build) inside the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/go/tmp"
export GOCACHE="$out/go/cache" GOPATH="$out/go/path" GOMODCACHE="$out/go/path/mod" GOTMPDIR="$out/go/tmp"
export XDG_CONFIG_HOME="$out/go/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -trimpath -o "$out/perfbench.bin" .
exec "$out/perfbench.bin" --work-dir "$out/perfbench" "$@"
