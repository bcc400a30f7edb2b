#!/usr/bin/env bash
# Run the static microcode verifier (w2c -verify) over every W2
# program in testdata/ and every example workload program — the ${...}
# template workloads substituted at one bound vector (w2c -bounds) — in
# both the plain and the software-pipelined configuration.  Any invariant
# violation makes w2c exit 3, which fails this script — an obligation
# left unproven (InvUnproven) included — and so does a queue occupancy
# reported by anything but the exact proof: "no new unproven", made
# mechanical.
set -euo pipefail
cd "$(dirname "$0")/.."

dump=$(mktemp -d)
trap 'rm -rf "$dump"' EXIT

go build -o "$dump/w2c" ./cmd/w2c
go run ./scripts/dumpw2 -dir "$dump/programs" >/dev/null

# One vector per template, off the sizes the concrete dump uses.
bounds_for() {
    case "$(basename "$1" .w2)" in
        matmul-sym)     echo "-bounds n=20" ;;
        conv1d-sym)     echo "-bounds k=5,n=40" ;;
        polynomial-sym) echo "-bounds ncoef=6,npoints=48" ;;
    esac
}

status=0
for f in testdata/*.w2 "$dump"/programs/*.w2; do
    for flags in "" "-pipeline"; do
        flags="$flags $(bounds_for "$f")"
        if out=$("$dump/w2c" -verify $flags "$f" 2>&1); then
            line=$(echo "$out" | grep -o 'verified:.*')
            if [[ "$line" == *"; proofs exact" ]]; then
                echo "ok   $f $flags: $line"
            else
                echo "FAIL $f $flags: not every queue proven exactly: $line" >&2
                status=1
            fi
        else
            echo "FAIL $f $flags:" >&2
            echo "$out" >&2
            status=1
        fi
    done
done
exit $status
