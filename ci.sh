#!/bin/sh
# CI gate: runs `make check`, the one list of gates (gofmt, vet, the unit
# suite, -race, the fuzz smokes, and the determinism, recovery, cascade,
# fleet, chaos, obs, bench, trace, and stitch gates). Regenerating
# BENCH_serve.json is a separate, explicit `make bench` step.
set -eu
make check
echo "ci: all checks passed"
