#!/usr/bin/env bash
# Cross-check the two execution backends over the example workloads.
#
# Single-array: `warpsim -crosscheck` compiles each built-in workload
# with verification, runs it on the cycle-accurate simulator AND the
# fast dataflow executor, and exits non-zero unless the modeled cycle
# counts agree exactly and every output word is bit-identical.  Both
# the list-scheduled and the software-pipelined schedules run, and the
# paper's 512×512 colorseg both ways: its plan is a kilobyte of loop
# nest, list-scheduled 8.9 M cycles long.
#
# Fabric: each example problem spec is farmed across 1 and 4 arrays on
# the fast backend with -check, which stitches the tiles and compares
# every output element against the full-problem W2 interpreter; the
# summary line must name the fast backend, proving the farm actually
# took the fast path rather than silently falling back to sim.  Each
# spec also runs on 2 arrays, where every array's share of the plan is
# more than one tile, on either backend: the summary must count at least
# one batch (several tiles through one walk of the fast plan, or of the
# simulated machine) and no batch that fell back to running tile by
# tile.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/warpsim" ./cmd/warpsim

crosscheck() {
    echo "== crosscheck $* =="
    "$bin/warpsim" -crosscheck "$@" | grep "crosscheck: backends agree"
}
for w in matmul polynomial conv1d binop fft mandelbrot; do
    crosscheck "$w"
    crosscheck -pipeline "$w"
done
crosscheck -pipeline colorseg
crosscheck colorseg

for spec in examples/fabric/*.json; do
    for arrays in 1 4; do
        echo "== fabric $spec on $arrays array(s), fast backend =="
        out=$("$bin/warpsim" -backend fast -arrays "$arrays" -check "$spec")
        echo "$out" | grep "fast backend"
        echo "$out" | grep "element-exact"
    done
    for backend in fast sim; do
        echo "== fabric $spec on 2 arrays, batched on the $backend backend =="
        out=$("$bin/warpsim" -backend "$backend" -arrays 2 -check "$spec")
        echo "$out" | grep "$backend backend"
        echo "$out" | grep -E "; [1-9][0-9]* batches, 0 fell back"
        echo "$out" | grep "element-exact"
    done
done

echo "fastexec-check: PASS"
