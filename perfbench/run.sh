#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload read_hot --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the current directory (or $CARGO_TARGET_DIR when set), never elsewhere.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

# The go command's caches, its config (telemetry counters live there) and
# every temp file stay in the build directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -workdir "$out/work" "$@"
