#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sweep|halo|bulk|serve --seed N --seconds S --trace 0|1
#
# The binary is built once per source state and run directly (not through
# go run), because the dist and elastic backends spawn their workers by
# re-executing it. Everything the build and the run write stays under
# .bench_build in the checkout: the Go build cache, temporary files, the
# binary, result caches and traces. A failed build exits non-zero without
# printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .) >&2
cd "$root"
exec "$out/perfbench/perfbench" "$@"
