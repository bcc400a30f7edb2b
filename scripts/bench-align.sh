#!/usr/bin/env bash
# Compare where the linker puts the benchmark's host-speed probe in two
# builds: the working tree's and revision <rev>'s.
#
#   scripts/bench-align.sh <rev> [dir]
#
# The benchmark divides every wall-clock metric by the host factor it
# times in main.(*hostClock).tick (benchmark/calibrate.go), and the
# probe loop's speed depends on its address mod 64 (ROADMAP.md item
# 1(a)).  A change that only moves the probe from 32 to 0 mod 64 read
# ops_per_s ×0.71–×0.82 on three workloads on a 2-vCPU host, and at
# parity once re-aligned.  So a change that moves the probe shifts every
# normalized number of the ledger, whatever else it does.  The script
# builds benchmark/ twice
# with the flags benchmark/run.sh uses, prints each binary's probe
# address and that address mod 64, and exits 1 if the two differ: pair
# the change against <rev> only when it passes.
#
# <rev> is exported with `git archive` into a temporary directory, and
# both binaries are written there; nothing under either tree is written.
# Given a directory, the script leaves the two binaries in it as
# work.bin and rev.bin when they pass (scripts/bench-pairs.sh runs them).
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: $0 <rev> [dir]" >&2
	exit 2
fi
rev=$1
keep=${2:-}
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
go build -C "$root/benchmark" -o "$tmp/work.bin" .
go build -C "$tmp/rev/benchmark" -o "$tmp/rev.bin" .

probe() {
	local addr
	addr=$(go tool nm "$1" | awk '$3 == "main.(*hostClock).tick" { print $1 }')
	if [ -z "$addr" ]; then
		echo "$0: no main.(*hostClock).tick in $2's benchmark binary" >&2
		exit 1
	fi
	echo $((16#$addr % 64))
	printf '%-12s tick at 0x%s, %d mod 64\n' "$2" "$addr" $((16#$addr % 64)) >&2
}
work=$(probe "$tmp/work.bin" "working tree")
base=$(probe "$tmp/rev.bin" "$rev")
if [ "$work" != "$base" ]; then
	echo "bench-align: FAIL (tick at $work mod 64, $rev at $base)"
	exit 1
fi
if [ -n "$keep" ]; then
	mv "$tmp/work.bin" "$tmp/rev.bin" "$keep"/
fi
echo "bench-align: PASS (tick at $work mod 64 in both)"
