#!/usr/bin/env bash
# Builds the benchmark once per checkout and runs it; every argument is
# passed through (see README.md):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary and Go's build cache live in .bench_build/ at the root of
# the checkout, so nothing is read or written outside it.  In a
# directory without the rest of the repository the build fails and the
# script exits non-zero before printing anything.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$here" -o "$build/benchmark" . >&2
exec "$build/benchmark" "$@"
