#!/usr/bin/env bash
# A/A check of the benchmark against its own bounds: runs every workload
# of BENCHMARK.json as two independent sets of <runs> untraced runs
# (seeds <seed0> .. <seed0>+<runs>-1, the same seeds in both sets) and
# prints one row per (workload, end-to-end metric) with both medians,
# both spreads (interquartile range over median) and a verdict:
#
#   FAIL    set B's median is worse than set A's by more than the
#           metric's bound, or a spread exceeds the bound (setup_s is
#           exempt from the spread rule), or a run reported a failure
#   noisy   passes, but a spread exceeds a third of the bound
#   ok      otherwise
#
# Usage: benchmark/aa.sh [runs [seed0 [outdir]]]   (default 10 1 .bench_build/aa)
# Exits 1 if any row fails.  Needs python3 for the statistics.
set -euo pipefail

runs="${1:-10}"
seed0="${2:-1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${3:-$root/.bench_build/aa}"
cd "$root"
mkdir -p "$out"
rm -f "$out"/*.json

seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

echo "# A/A: $runs runs per set, seeds $seed0..$((seed0 + runs - 1)), $seconds s per run"
echo "# nproc=$(nproc) GOMAXPROCS=${GOMAXPROCS:-$(nproc)} $(go version | cut -d' ' -f3-) commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

for set in A B; do
	for w in $workloads; do
		for ((i = 0; i < runs; i++)); do
			bash benchmark/run.sh --workload "$w" --seed $((seed0 + i)) --seconds "$seconds" --trace 0 |
				tail -n 1 >"$out/$set.$w.$i.json"
		done
	done
done

python3 - "$out" <<'EOF'
import glob, json, os, statistics, sys

out = sys.argv[1]
manifest = json.load(open("BENCHMARK.json"))
failed = False
print(f"{'workload':15} {'metric':16} {'median A':>12} {'median B':>12} {'spread A':>9} {'spread B':>9} {'shift':>8} {'bound':>7}  verdict")
for w in (x["name"] for x in manifest["workloads"]):
    sets = {}
    for s in "AB":
        runs = [json.load(open(f)) for f in sorted(glob.glob(os.path.join(out, f"{s}.{w}.*.json")))]
        sets[s] = runs
    broken = sum(1 for s in "AB" for r in sets[s] if not r["correct"] or r["failed"])
    for m in manifest["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        med, spread = {}, {}
        for s in "AB":
            v = [r["metrics"][name]["value"] for r in sets[s]]
            q = statistics.quantiles(v, n=4)
            med[s] = statistics.median(v)
            spread[s] = (q[2] - q[0]) / med[s]
        shift = (med["B"] - med["A"]) / med["A"] * (1 if lower else -1)  # > 0: B is worse
        verdict = "ok"
        worst = max(spread.values()) if name != "setup_s" else 0
        if worst > bound / 3:
            verdict = "noisy"
        if shift > bound or worst > bound or broken:
            verdict, failed = "FAIL", True
        print(f"{w:15} {name:16} {med['A']:12.6g} {med['B']:12.6g} {spread['A']:9.4f} {spread['B']:9.4f} {shift:+8.4f} {bound:7.2g}  {verdict}")
sys.exit(1 if failed else 0)
EOF
