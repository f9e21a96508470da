#!/usr/bin/env bash
# Builds metaai-serve, metaai-fleet and the benchmark from source, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload direct --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries, temporary state, trace
# files) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/" ./cmd/metaai-serve ./cmd/metaai-fleet
(cd e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out" "$@"
