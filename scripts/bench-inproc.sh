#!/usr/bin/env bash
# A/B one package's Go benchmarks in process: the working tree against
# revision <rev>.
#
#   scripts/bench-inproc.sh <rev> <pkg> <bench-regex> <rounds> [benchtime]
#
# Builds the test binary of <pkg> (e.g. ./internal/fastexec) for both,
# then runs `-test.bench <bench-regex>` on each <rounds> times, each from
# its own tree's package directory, the side that goes first alternating
# from round to round (the host is noisy and drifts; alternating cancels
# the drift).  It prints, per benchmark, each side's median ns/op over
# the rounds, the change's median over the parent's and the rounds the
# change was faster in.  benchtime is passed to -test.benchtime (default
# 200x).
#
# <rev> is exported with `git archive` into a temporary directory, where
# both binaries are built; the script itself writes nothing under the
# working tree.  Needs python3 for the statistics.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	echo "usage: $0 <rev> <pkg> <bench-regex> <rounds> [benchtime]" >&2
	exit 2
fi
rev=$1 pkg=$2 regex=$3 rounds=$4 benchtime=${5:-200x}
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
go test -C "$root" -c -o "$tmp/work.test" "$pkg"
go test -C "$tmp/rev" -c -o "$tmp/rev.test" "$pkg"

echo "# $pkg -bench '$regex' -benchtime $benchtime: $rounds rounds, parent $rev"
echo "# nproc=$(nproc) GOMAXPROCS=${GOMAXPROCS:-$(nproc)} $(go version | cut -d' ' -f3-)"
for ((i = 0; i < rounds; i++)); do
	sides="rev work"
	if ((i % 2 == 1)); then
		sides="work rev"
	fi
	for side in $sides; do
		dir="$root/$pkg"
		if [ "$side" = rev ]; then
			dir="$tmp/rev/$pkg"
		fi
		(cd "$dir" && "$tmp/$side.test" -test.run '^$' -test.bench "$regex" -test.benchtime "$benchtime" -test.timeout 30m) |
			awk -v r="$i" -v s="$side" '/^Benchmark/ { for (k = 3; k < NF; k++) if ($(k + 1) == "ns/op") print s, r, $1, $k }' >>"$tmp/runs"
	done
done

python3 - "$tmp/runs" "$rounds" <<'PY'
import collections, statistics, sys

ns = collections.defaultdict(dict)  # benchmark -> (side, round) -> ns/op
for line in open(sys.argv[1]):
    side, rnd, name, val = line.split()
    ns[name][side, int(rnd)] = float(val)
rounds = int(sys.argv[2])
print(f"{'benchmark':60} {'parent ns/op':>14} {'change ns/op':>14} {'ratio':>7} {'wins':>6}")
for name, runs in ns.items():
    both = [r for r in range(rounds) if ("rev", r) in runs and ("work", r) in runs]
    if not both:
        continue
    rev = statistics.median(runs["rev", r] for r in both)
    work = statistics.median(runs["work", r] for r in both)
    wins = sum(runs["work", r] < runs["rev", r] for r in both)
    print(f"{name:60} {rev:14.0f} {work:14.0f} {work / rev:7.3f} {wins:3}/{len(both)}")
PY
