package bench

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"warp"
)

// TestReportRoundTrip pins the schema: a written report reads back
// identically and carries the schema tag the gate validates.
func TestReportRoundTrip(t *testing.T) {
	rep := &Report{Schema: Schema, Experiments: []Experiment{
		{Name: "run/x", Kind: "run", Cells: 10, Skew: 3, Cycles: 225,
			CellUcode: 41, IUUcode: 43, AddUtil: 0.94, MulUtil: 0.94,
			PeakQueue: 5, Wall: &Wall{Iters: 5, MedianNS: 1e6, MinNS: 9e5}},
		{Name: "compile/a", Kind: "compile", W2Lines: 27, CellUcode: 41,
			IUUcode: 43, Wall: &Wall{Iters: 5, MedianNS: 2e6, MinNS: 1e6}},
	}}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Experiments) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Write sorts by name for diff-stable baselines.
	if got.Experiments[0].Name != "compile/a" {
		t.Errorf("experiments not sorted: %q first", got.Experiments[0].Name)
	}
	if e := got.Experiments[1]; e.Cycles != 225 || e.Wall == nil || e.Wall.MedianNS != 1e6 {
		t.Errorf("run record mangled: %+v", e)
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	rep := &Report{Schema: "warpbench/999"}
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("ReadFile accepted an unknown schema: %v", err)
	}
}

func rpt(exps ...Experiment) *Report { return &Report{Schema: Schema, Experiments: exps} }

// TestCompareGate exercises every verdict class: identical reports
// pass clean; a >threshold cycle regression fails; a small change or an
// improvement warns; wall drift warns; vanished coverage fails.
func TestCompareGate(t *testing.T) {
	base := rpt(
		Experiment{Name: "run/a", Cycles: 1000, CellUcode: 40, IUUcode: 42,
			Wall: &Wall{Iters: 3, MedianNS: 1000, MinNS: 900}},
		Experiment{Name: "run/b", Cycles: 500},
	)

	t.Run("identical", func(t *testing.T) {
		v := Compare(base, base, 0.10, 0.50, 0)
		if !v.OK() || len(v.Warnings) != 0 {
			t.Fatalf("identical reports produced %+v", v)
		}
	})

	t.Run("cycle regression fails", func(t *testing.T) {
		fresh := rpt(
			Experiment{Name: "run/a", Cycles: 1200, CellUcode: 40, IUUcode: 42},
			Experiment{Name: "run/b", Cycles: 500},
		)
		v := Compare(base, fresh, 0.10, 0.50, 0)
		if v.OK() {
			t.Fatal("a +20% cycle regression passed the gate")
		}
		if !strings.Contains(strings.Join(v.Regressions, "\n"), "cycles regressed 1000 -> 1200") {
			t.Errorf("regression message: %v", v.Regressions)
		}
	})

	t.Run("zero threshold fails any increase", func(t *testing.T) {
		fresh := rpt(
			Experiment{Name: "run/a", Cycles: 1001, CellUcode: 40, IUUcode: 42},
			Experiment{Name: "run/b", Cycles: 500},
		)
		if v := Compare(base, fresh, 0, 0.50, 0); v.OK() {
			t.Fatal("+1 cycle passed with threshold 0")
		}
	})

	t.Run("improvement warns", func(t *testing.T) {
		fresh := rpt(
			Experiment{Name: "run/a", Cycles: 800, CellUcode: 40, IUUcode: 42},
			Experiment{Name: "run/b", Cycles: 500},
		)
		v := Compare(base, fresh, 0.10, 0.50, 0)
		if !v.OK() {
			t.Fatalf("an improvement failed the gate: %v", v.Regressions)
		}
		if len(v.Warnings) == 0 || !strings.Contains(v.Warnings[0], "improved") {
			t.Errorf("improvement did not warn for a baseline refresh: %v", v.Warnings)
		}
	})

	t.Run("wall drift warns only", func(t *testing.T) {
		fresh := rpt(
			Experiment{Name: "run/a", Cycles: 1000, CellUcode: 40, IUUcode: 42,
				Wall: &Wall{Iters: 3, MedianNS: 5000, MinNS: 4000}},
			Experiment{Name: "run/b", Cycles: 500},
		)
		v := Compare(base, fresh, 0.10, 0.50, 0)
		if !v.OK() {
			t.Fatalf("wall drift failed the gate: %v", v.Regressions)
		}
		if !strings.Contains(strings.Join(v.Warnings, "\n"), "wall median drifted") {
			t.Errorf("no wall-drift warning: %v", v.Warnings)
		}
	})

	t.Run("vanished experiment fails", func(t *testing.T) {
		fresh := rpt(Experiment{Name: "run/a", Cycles: 1000, CellUcode: 40, IUUcode: 42})
		if v := Compare(base, fresh, 0.10, 0.50, 0); v.OK() {
			t.Fatal("losing run/b coverage passed the gate")
		}
	})

	t.Run("new experiment warns", func(t *testing.T) {
		fresh := rpt(
			Experiment{Name: "run/a", Cycles: 1000, CellUcode: 40, IUUcode: 42},
			Experiment{Name: "run/b", Cycles: 500},
			Experiment{Name: "run/c", Cycles: 7},
		)
		v := Compare(base, fresh, 0.10, 0.50, 0)
		if !v.OK() || len(v.Warnings) != 1 {
			t.Fatalf("new experiment: %+v", v)
		}
	})

	t.Run("prediction error warns past the factor", func(t *testing.T) {
		fresh := rpt(
			Experiment{Name: "run/a", Cycles: 1000, CellUcode: 40, IUUcode: 42,
				Decision: &warp.Decision{Backend: "fast", Reason: "auto-verified",
					PredictedFastWallNS: 100_000, ActualWallNS: 400_000}},
			Experiment{Name: "run/b", Cycles: 500},
		)
		v := Compare(base, fresh, 0.10, 0.50, 0)
		if !v.OK() {
			t.Fatalf("a bad prediction hard-failed the gate: %v", v.Regressions)
		}
		joined := strings.Join(v.Warnings, "\n")
		if !strings.Contains(joined, "cost model predicted") || !strings.Contains(joined, "4.0x off") {
			t.Errorf("no prediction-error warning at 4x: %v", v.Warnings)
		}
	})

	t.Run("prediction error within the factor stays silent", func(t *testing.T) {
		fresh := rpt(
			Experiment{Name: "run/a", Cycles: 1000, CellUcode: 40, IUUcode: 42,
				Decision: &warp.Decision{Backend: "fast", Reason: "auto-verified",
					PredictedFastWallNS: 100_000, ActualWallNS: 250_000}},
			Experiment{Name: "run/b", Cycles: 500},
		)
		v := Compare(base, fresh, 0.10, 0.50, 0)
		if strings.Contains(strings.Join(v.Warnings, "\n"), "cost model") {
			t.Errorf("a 2.5x prediction error warned below the %gx factor: %v",
				PredictionErrorWarnFactor, v.Warnings)
		}
	})
}

// TestRunPinsBaselines runs the real suite once and asserts the four
// pinned cycle counts — the same 1322/225/634/719 TestObsNeutral and
// EXPERIMENTS.md record — so BENCH_*.json, the tests and the docs can
// never silently disagree.
func TestRunPinsBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the full Table 7-1 suite")
	}
	rep, err := Run(1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"run/polynomial-plain":     1322,
		"run/polynomial-pipelined": 225,
		"run/conv1d-pipelined":     634,
		"run/matmul10-pipelined":   719,
	}
	got := map[string]int64{}
	for _, e := range rep.Experiments {
		got[e.Name] = e.Cycles
		if e.Wall == nil || e.Wall.Iters != 1 || e.Wall.MedianNS <= 0 {
			t.Errorf("%s: bad wall stats %+v", e.Name, e.Wall)
		}
	}
	for name, cycles := range want {
		if got[name] != cycles {
			t.Errorf("%s = %d cycles, want the pinned baseline %d", name, got[name], cycles)
		}
	}
	// +1 fastexec.
	if want := len(compileCases()) + len(runCases()) + len(fabricCases()) + 1; len(rep.Experiments) != want {
		t.Errorf("suite ran %d experiments, want %d (incl. fastexec)", len(rep.Experiments), want)
	}
	// The fastexec backend comparison: Run itself verifies the two
	// backends agree bit-for-bit before emitting the record, so here we
	// only check the record's shape (the 5× floor is gated by Compare,
	// not asserted on a loaded CI host).
	var fx *Experiment
	for i := range rep.Experiments {
		if rep.Experiments[i].Kind == "fastexec" {
			fx = &rep.Experiments[i]
		}
	}
	if fx == nil {
		t.Fatal("no fastexec experiment in the suite")
	}
	if fx.Name != "fastexec/matmul32" || fx.Cycles <= 0 || fx.Speedup <= 0 ||
		fx.SimWall == nil || fx.Wall == nil {
		t.Errorf("malformed fastexec record: %+v", fx)
	}
	// The fabric scaling curve: the 4-array farm's modeled speedup over
	// one array must clear 2× (the acceptance bar), and the tile
	// decomposition is pinned.
	fab := map[string]Experiment{}
	for _, e := range rep.Experiments {
		if e.Kind == "fabric" {
			fab[e.Name] = e
		}
	}
	a4 := fab["fabric/matmul40-arrays4"]
	if a4.Tiles != 64 { // ⌈40/10⌉³
		t.Errorf("matmul40 decomposed into %d tiles, want 64", a4.Tiles)
	}
	if a4.Speedup < 2 {
		t.Errorf("4-array modeled speedup %.2f, want ≥2", a4.Speedup)
	}
	a1 := fab["fabric/matmul40-arrays1"]
	if a1.AggCycles != a4.AggCycles {
		t.Errorf("aggregate cycles differ across array counts: %d vs %d", a1.AggCycles, a4.AggCycles)
	}
	if a1.Makespan != a1.AggCycles {
		t.Errorf("1-array makespan %d != aggregate %d", a1.Makespan, a1.AggCycles)
	}
}

// TestCompilePhaseDrift checks the per-phase compile-time warning: a
// phase whose median grew past CompileDriftFactor× names itself; drift
// under the factor stays silent.
func TestCompilePhaseDrift(t *testing.T) {
	// Durations sit above CompilePhaseFloorNS so the noise-floor
	// exemption does not swallow the drift.
	base := rpt(Experiment{Name: "compile/c", Kind: "compile",
		CompilePhases: []PhaseWall{{Name: "cellgen", MedianNS: 10_000_000}, {Name: "skew", MedianNS: 5_000_000}}})
	fresh := rpt(Experiment{Name: "compile/c", Kind: "compile",
		CompilePhases: []PhaseWall{{Name: "cellgen", MedianNS: 21_000_000}, {Name: "skew", MedianNS: 9_000_000}}})
	v := Compare(base, fresh, 0.10, 100, 0) // wall threshold out of the way
	if !v.OK() {
		t.Fatalf("phase drift must warn, not fail: %v", v.Regressions)
	}
	joined := strings.Join(v.Warnings, "\n")
	if !strings.Contains(joined, `compile phase "cellgen" drifted`) {
		t.Errorf("no warning naming the drifted phase: %v", v.Warnings)
	}
	if strings.Contains(joined, `"skew"`) {
		t.Errorf("sub-factor drift warned: %v", v.Warnings)
	}
}

// TestCompileThresholdPromotes checks that a positive compileThreshold
// turns compile-phase drift past the factor into a hard regression,
// while drift under the factor still only warns via CompileDriftFactor.
func TestCompileThresholdPromotes(t *testing.T) {
	base := rpt(Experiment{Name: "compile/c", Kind: "compile",
		CompilePhases: []PhaseWall{
			{Name: "cellgen", MedianNS: 10_000_000},
			{Name: "skew", MedianNS: 5_000_000},
			{Name: "optimize", MedianNS: 400}}})
	fresh := rpt(Experiment{Name: "compile/c", Kind: "compile",
		CompilePhases: []PhaseWall{
			{Name: "cellgen", MedianNS: 50_000_000},
			{Name: "skew", MedianNS: 11_000_000},
			{Name: "optimize", MedianNS: 40_000}}})
	v := Compare(base, fresh, 0.10, 100, 4.0)
	if v.OK() {
		t.Fatal("5x phase growth must fail with -compile-threshold 4")
	}
	joined := strings.Join(v.Regressions, "\n")
	if !strings.Contains(joined, `compile phase "cellgen" regressed`) {
		t.Errorf("no regression naming the blown phase: %v", v.Regressions)
	}
	if strings.Contains(joined, `"skew"`) {
		t.Errorf("2.2x growth hard-failed under a 4x threshold: %v", v.Regressions)
	}
	if !strings.Contains(strings.Join(v.Warnings, "\n"), `compile phase "skew" drifted`) {
		t.Errorf("2.2x growth should still warn: %v", v.Warnings)
	}
	// "optimize" grew 100x but both sides sit under CompilePhaseFloorNS:
	// sub-floor phases are scheduler noise and must stay silent.
	all := joined + "\n" + strings.Join(v.Warnings, "\n")
	if strings.Contains(all, `"optimize"`) {
		t.Errorf("sub-floor phase escaped the noise floor: %v / %v", v.Regressions, v.Warnings)
	}
}

// TestFastexecSpeedupGate checks the one hard wall gate: a fastexec
// experiment whose speedup fell below FastexecSpeedupFloor fails
// regardless of thresholds, while above-floor drift only warns.
func TestFastexecSpeedupGate(t *testing.T) {
	const floor = FastexecSpeedupFloor
	exp := func(speedup float64) *Report {
		return rpt(Experiment{Name: "fastexec/matmul32", Kind: "fastexec", Cycles: 100, Speedup: speedup})
	}
	base := exp(3 * floor)
	v := Compare(base, exp(0.84*floor), 0.10, 0.50, 0)
	if v.OK() {
		t.Fatalf("a speedup of 0.84 of the floor must fail the %.1fx floor", floor)
	}
	if !strings.Contains(strings.Join(v.Regressions, "\n"), fmt.Sprintf("below the %.1fx floor", floor)) {
		t.Errorf("regression does not name the floor: %v", v.Regressions)
	}
	if v := Compare(base, exp(0.98*floor), 0.10, 0.50, 0); v.OK() {
		t.Error("a speedup just under the floor must fail even with a worse baseline margin")
	}
	v = Compare(base, exp(1.1*floor), 0.10, 0.50, 0)
	if !v.OK() {
		t.Fatalf("1.1 of the floor is above it, drift must be warn-only: %v", v.Regressions)
	}
	if !strings.Contains(strings.Join(v.Warnings, "\n"), "speedup drifted") {
		t.Errorf("a drift from 3 to 1.1 times the floor should warn: %v", v.Warnings)
	}
}

// TestRunRecordsCompileIntrospection runs one compile case end to end
// and checks the new warpbench/1 fields: per-phase wall times that are
// present for every compiler phase, a dominant phase drawn from them,
// and the scheduler totals.
func TestRunRecordsCompileIntrospection(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the full Table 7-1 suite")
	}
	rep, err := Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Experiments {
		if e.Kind != "compile" {
			continue
		}
		if len(e.CompilePhases) == 0 {
			t.Errorf("%s: no per-phase wall times", e.Name)
			continue
		}
		names := map[string]bool{}
		for _, ph := range e.CompilePhases {
			names[ph.Name] = true
			if ph.MedianNS <= 0 {
				t.Errorf("%s: phase %s has no wall time", e.Name, ph.Name)
			}
		}
		for _, want := range []string{"parse", "cellgen", "iugen", "hostgen"} {
			if !names[want] {
				t.Errorf("%s: missing phase %q in %v", e.Name, want, e.CompilePhases)
			}
		}
		if !names[e.DominantPhase] {
			t.Errorf("%s: dominant phase %q is not a recorded phase", e.Name, e.DominantPhase)
		}
		if e.Sched == nil || e.Sched.Loops == 0 {
			t.Errorf("%s: no scheduler totals: %+v", e.Name, e.Sched)
		}
	}
}
