#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 30 --trace 0
# Build products, the Go build cache and the runs' scratch stores all
# live under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/runs"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOWORK=off


# The build log goes to stderr: the last line of stdout is the result.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --work-dir "$build/runs" "$@"
