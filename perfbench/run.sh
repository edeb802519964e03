#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-heavy --seed 1 --seconds 10 --trace 0
#
# Build caches, temporary files and the binary stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
