// Command benchgate compares a fresh benchmark run against the
// committed BENCH_*.json baseline and fails on regressions in the
// deterministic counters (simulated cycles, µcode sizes, skew, and
// the fabric's tile counts, aggregate and makespan cycles).
// Wall-clock drift only warns — hosts differ.  Compile experiments
// additionally carry per-phase wall times: a phase whose median grew
// past bench.CompileDriftFactor (2×) draws a warning naming the phase,
// so a scheduler search blowup is attributed, not just noticed;
// -compile-threshold promotes drift past the given factor to a hard
// failure (CI uses it so compile-time blowups cannot merge silently).
// The fastexec experiment is the one wall metric gated hard: its
// sim-over-fast speedup ratio cancels host speed, so falling below
// bench.FastexecSpeedupFloor (1.9×) fails regardless of thresholds.
//
// Usage:
//
//	go run ./scripts/benchgate.go                      # run suite, gate vs BENCH_15.json
//	go run ./scripts/benchgate.go -fresh bench.json    # gate a pre-built report
//	go run ./scripts/benchgate.go -cycle-threshold 0   # any cycle increase fails (CI)
//	go run ./scripts/benchgate.go -compile-threshold 2 # 2x compile-phase growth fails
//
// Exit status: 0 when the gate passes (warnings allowed), 1 on any
// regression, 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"warp/internal/bench"
)

func main() {
	var (
		baseline = flag.String("baseline", bench.BaselineFile, "committed baseline report")
		fresh    = flag.String("fresh", "", "pre-built fresh report (empty = run the suite now)")
		out      = flag.String("out", "", "also write the fresh report here")
		iters    = flag.Int("iters", 3, "wall-clock iterations when running the suite")
		cycleThr = flag.Float64("cycle-threshold", 0.10, "fail when a deterministic counter regresses by more than this fraction (0 = any increase fails)")
		wallThr  = flag.Float64("wall-threshold", 0.50, "warn when a wall-clock median drifts up by more than this fraction")
		compThr  = flag.Float64("compile-threshold", 0, "fail when a compile phase's median wall time grows past this factor (0 = warn-only past the built-in 2x)")
	)
	flag.Parse()

	base, err := bench.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
		os.Exit(2)
	}

	var freshRep *bench.Report
	if *fresh != "" {
		freshRep, err = bench.ReadFile(*fresh)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: fresh: %v\n", err)
			os.Exit(2)
		}
	} else {
		fmt.Printf("benchgate: running the suite (%d wall-clock iterations per experiment)...\n", *iters)
		freshRep, err = bench.Run(*iters)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
	}
	if *out != "" {
		if err := freshRep.WriteFile(*out); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
	}

	v := bench.Compare(base, freshRep, *cycleThr, *wallThr, *compThr)
	for _, w := range v.Warnings {
		fmt.Printf("benchgate: warning: %s\n", w)
	}
	for _, r := range v.Regressions {
		fmt.Printf("benchgate: REGRESSION: %s\n", r)
	}
	fmt.Printf("benchgate: %d experiments vs %s: %d regressions, %d warnings\n",
		len(freshRep.Experiments), *baseline, len(v.Regressions), len(v.Warnings))
	if !v.OK() {
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}
