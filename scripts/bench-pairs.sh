#!/usr/bin/env bash
# Pair the working tree against revision <rev> on one benchmark workload:
#
#   scripts/bench-pairs.sh <rev> <workload> <pairs> [seed0]
#
# Builds benchmark/ for both with scripts/bench-align.sh (which refuses
# when the two binaries' host-speed probes sit differently mod 64), then
# runs <pairs> pairs of untraced passes as long as BENCHMARK.json's
# run_seconds, pair i on seed seed0+i (default seed0 1) for both sides,
# the side that goes first alternating from pair to pair.  It prints
# every run, then for every end-to-end metric of BENCHMARK.json each
# side's quartiles and median, the change's median over the parent's,
# the median gain (positive when the change is better), the parent's
# interquartile range and the number of pairs the change wins: the
# evidence a claimed gain needs (it must win nearly every pair, by more
# than the parent's interquartile range).  Exits 1 if a run fails.
#
# Everything is built and written in a temporary directory; nothing
# under either tree is written.  Needs python3 for the statistics.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <rev> <workload> <pairs> [seed0]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seed0=${4:-1}
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$root/scripts/bench-align.sh" "$rev" "$tmp"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

echo "# $workload: $pairs pairs, seeds $seed0..$((seed0 + pairs - 1)), $seconds s per run, parent $rev"
echo "# nproc=$(nproc) GOMAXPROCS=${GOMAXPROCS:-$(nproc)} $(go version | cut -d' ' -f3-)"
for ((i = 0; i < pairs; i++)); do
	sides="rev work"
	if ((i % 2 == 1)); then
		sides="work rev"
	fi
	for side in $sides; do
		"$tmp/$side.bin" --workload "$workload" --seed $((seed0 + i)) --seconds "$seconds" --trace 0 |
			tail -n 1 >"$tmp/$side.$i.json"
	done
done

python3 - "$tmp" "$pairs" "$root/BENCHMARK.json" <<'PY'
import json, statistics, sys

tmp, pairs, manifest = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
runs = {s: [json.load(open(f"{tmp}/{s}.{i}.json")) for i in range(pairs)] for s in ("rev", "work")}
metrics = [m for m in manifest["end_to_end"] if m["name"] in runs["rev"][0]["metrics"]]
val = lambda s, i, name: runs[s][i]["metrics"][name]["value"]

# Every run of the timed metrics; the exact ones (bound 1e-9) are in the
# summary below.
timed = [m for m in metrics if m["bound"] > 1e-6]
print("pair " + " ".join(f"{m['name'] + ' parent':>22} {m['name'] + ' change':>22}" for m in timed))
for i in range(pairs):
    print(f"{i:4} " + " ".join(f"{val('rev', i, m['name']):22.6g} {val('work', i, m['name']):22.6g}" for m in timed))

failed = False
for s in runs:
    for i, r in enumerate(runs[s]):
        if not r["correct"] or r["failed"]:
            print(f"{'parent' if s == 'rev' else 'change'} run {i}: correct={r['correct']} failed={r['failed']}")
            failed = True

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]

print(f"\n{'metric':16} {'parent q1':>11} {'median':>11} {'q3':>11}   {'change q1':>11} {'median':>11} {'q3':>11}   {'ratio':>7} {'gain':>10} {'parent IQR':>10} {'wins':>6}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    a = [val("rev", i, name) for i in range(pairs)]
    b = [val("work", i, name) for i in range(pairs)]
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    qa, qb = quartiles(a), quartiles(b)
    ratio = qb[1] / qa[1] if qa[1] else float("nan")
    gain = (qa[1] - qb[1]) if lower else (qb[1] - qa[1])
    print(f"{name:16} {qa[0]:11.6g} {qa[1]:11.6g} {qa[2]:11.6g}   {qb[0]:11.6g} {qb[1]:11.6g} {qb[2]:11.6g}   {ratio:7.3f} {gain:10.4g} {qa[2] - qa[0]:10.4g} {wins:3}/{pairs}")
sys.exit(1 if failed else 0)
PY
