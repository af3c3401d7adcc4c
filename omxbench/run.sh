#!/usr/bin/env bash
# Builds omxbench from the sources of the checkout it is run from (the
# repository root) and runs it with the given arguments, e.g.
#
#   bash omxbench/run.sh --workload kv-pressure --seed 3 --seconds 15 --trace 0
#
# Go's build cache, the binary, result files and traces all stay under
# $CARGO_TARGET_DIR (default .bench_build), so the benchmark reads and
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= GOENV=off

go -C "$root/omxbench" build -o "$out/omxbench" .
exec "$out/omxbench" -out "$out" "$@"
