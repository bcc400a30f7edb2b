// Package bench defines the machine-readable benchmark artifact shared
// by `warpbench -json`, `warpsim -stats-json` and
// `scripts/benchgate.go`: a stable JSON schema recording every
// experiment's deterministic results (simulated cycle counts, µcode
// sizes) next to its non-deterministic wall-clock statistics
// (median/min over several iterations), plus the comparison logic the
// regression gate applies between a fresh run and a committed
// BENCH_*.json baseline.
//
// The split matters for gating: cycle counts and µcode sizes are exact
// outputs of a deterministic compiler and simulator, so any change is a
// real behavior change and the gate can hard-fail on them; wall-clock
// numbers vary with the host, so the gate only warns on drift.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"warp"
	"warp/internal/prof"
	"warp/internal/workloads"
)

// Schema identifies the report format.  Bump it only on incompatible
// changes; additive optional fields keep the version.
const Schema = "warpbench/1"

// Wall is the wall-clock statistic of one experiment over several
// iterations.  Median and min are both recorded: median is the robust
// central tendency the gate compares, min approximates the noise floor.
type Wall struct {
	Iters    int   `json:"iters"`
	MedianNS int64 `json:"median_ns"`
	MinNS    int64 `json:"min_ns"`
}

// PhaseWall is one compiler phase's wall time within a compile
// experiment, reduced over the iterations like Wall.
type PhaseWall struct {
	Name     string `json:"name"`
	MedianNS int64  `json:"median_ns"`
	MinNS    int64  `json:"min_ns"`
}

// Experiment is one benchmark record.  Deterministic fields (Cycles,
// CellUcode, IUUcode, W2Lines, Cells, Skew) are gate-comparable;
// utilization fractions and Wall are informational.
type Experiment struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "compile", "run", "fabric" or "fastexec"

	Cells     int   `json:"cells,omitempty"`
	Skew      int64 `json:"skew,omitempty"`
	W2Lines   int   `json:"w2_lines,omitempty"`
	CellUcode int   `json:"cell_ucode,omitempty"`
	IUUcode   int   `json:"iu_ucode,omitempty"`

	Cycles    int64   `json:"cycles,omitempty"`
	AddUtil   float64 `json:"add_util,omitempty"`
	MulUtil   float64 `json:"mul_util,omitempty"`
	PeakQueue int     `json:"peak_queue,omitempty"`

	// Fabric (partitioned-run) records.  Tiles, Arrays, AggCycles and
	// Makespan are deterministic — the tile decomposition and the
	// modeled list-schedule are pure functions of the plan — so the
	// gate hard-fails on them like cycle counts.  Speedup is their
	// ratio (informational; gating the operands gates it).
	Tiles     int     `json:"tiles,omitempty"`
	Arrays    int     `json:"arrays,omitempty"`
	AggCycles int64   `json:"agg_cycles,omitempty"`
	Makespan  int64   `json:"makespan_cycles,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`

	Wall *Wall `json:"wall,omitempty"`

	// Fastexec (backend-comparison) records.  Wall and Speedup describe
	// the fast dataflow executor; SimWall is the cycle-accurate
	// simulator's wall time on the identical verified program and
	// inputs, so Speedup = SimWall.Min / Wall.Min (minima approximate
	// the noise floor, keeping the gated ratio robust to load spikes).
	// Cycles is the shared count both backends must report — Run errors
	// out before emitting the record if they disagree on cycles or any
	// output bit.
	SimWall *Wall `json:"sim_wall,omitempty"`

	// Compile-kind extras (additive, schema version unchanged).
	// CompilePhases records per-phase wall times so compile-time
	// regressions name the phase, not just the total; DominantPhase is
	// the phase with the largest median; Sched is the scheduler's
	// introspection roll-up (deterministic counters except search_ns and
	// skew_ns, which are wall times — the gate treats the whole block as
	// informational).
	CompilePhases []PhaseWall       `json:"compile_phases,omitempty"`
	DominantPhase string            `json:"dominant_phase,omitempty"`
	Sched         *prof.SchedTotals `json:"sched,omitempty"`

	// Decision is the backend decision audit for run and fabric kinds
	// (additive, schema version unchanged): which executor ran, why, and
	// the cost model's predicted wall times beside the measured one.
	// Wall predictions are host-specific, so the gate never hard-fails
	// on them; Compare warns when the prediction error exceeds
	// PredictionErrorWarnFactor.
	Decision *warp.Decision `json:"decision,omitempty"`
}

// Report is the top-level artifact.
type Report struct {
	Schema      string       `json:"schema"`
	Experiments []Experiment `json:"experiments"`
}

// FromRun builds a run-kind record from a compiled program's metrics
// and one run's statistics — the shared constructor that keeps warpsim
// -stats-json and warpbench -json emitting identical shapes.
func FromRun(name string, m warp.Metrics, rs *warp.RunStats, wall *Wall) Experiment {
	return Experiment{
		Name:      name,
		Kind:      "run",
		Cells:     m.Cells,
		Skew:      m.Skew,
		W2Lines:   m.W2Lines,
		CellUcode: m.CellInstrs,
		IUUcode:   m.IUInstrs,
		Cycles:    rs.Cycles,
		AddUtil:   rs.AddUtilization,
		MulUtil:   rs.MulUtilization,
		PeakQueue: rs.MaxQueue,
		Wall:      wall,
		Decision:  rs.Decision,
	}
}

// FromFabric builds a fabric-kind record from the tile kernel's
// metrics and one partitioned run's fabric statistics.
func FromFabric(name string, m warp.Metrics, fs *warp.FabricStats, wall *Wall) Experiment {
	return Experiment{
		Name:      name,
		Kind:      "fabric",
		Cells:     m.Cells,
		Skew:      m.Skew,
		W2Lines:   m.W2Lines,
		CellUcode: m.CellInstrs,
		IUUcode:   m.IUInstrs,
		AddUtil:   fs.AddUtil,
		MulUtil:   fs.MulUtil,
		PeakQueue: fs.PeakQueue,
		Tiles:     fs.Tiles,
		Arrays:    fs.Arrays,
		AggCycles: fs.AggregateCycles,
		Makespan:  fs.MakespanCycles,
		Speedup:   fs.Speedup,
		Wall:      wall,
		Decision:  fs.Decision,
	}
}

// Write renders the report as indented JSON with experiments sorted
// by name, so regenerated baselines diff cleanly.
func (r *Report) Write(w io.Writer) error {
	sort.Slice(r.Experiments, func(i, j int) bool {
		return r.Experiments[i].Name < r.Experiments[j].Name
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads and validates a report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, this tool understands %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// compileCase is one Table 7-1 compilation benchmark.
type compileCase struct {
	name string
	src  func() string
}

// runCase is one simulation benchmark; the cycle counts are the pinned
// baselines every perf PR is judged against (the first four match
// TestObsNeutral's 1322/225/634/719).
type runCase struct {
	name string
	src  func() string
	pipe bool
}

func compileCases() []compileCase {
	return []compileCase{
		{"1d-conv", workloads.Conv1DPaper},
		{"binop", workloads.BinopPaper},
		{"colorseg", workloads.ColorSegPaper},
		{"mandelbrot", workloads.MandelbrotPaper},
		{"polynomial", workloads.PolynomialPaper},
	}
}

func runCases() []runCase {
	return []runCase{
		{"polynomial-plain", func() string { return workloads.Polynomial(10, 100) }, false},
		{"polynomial-pipelined", func() string { return workloads.Polynomial(10, 100) }, true},
		{"conv1d-pipelined", func() string { return workloads.Conv1D(9, 512) }, true},
		{"matmul10-pipelined", func() string { return workloads.Matmul(10) }, true},
		{"polynomial-large-pipelined", func() string { return workloads.Polynomial(10, 400) }, true},
		{"conv1d-large-pipelined", func() string { return workloads.Conv1D(9, 2048) }, true},
	}
}

// fabricCase is one partitioned-run benchmark: an oversized problem
// farmed across a fixed array count.  The matmul case repeats at 1, 2
// and 4 arrays — the scaling curve whose modeled speedups the baseline
// pins.
type fabricCase struct {
	name   string
	arrays int
	tile   func() string
	prob   func() warp.Problem
}

func fabricCases() []fabricCase {
	mm := func() warp.Problem {
		a, b := workloads.LargeMatmulData(40, 40, 40, 5)
		return warp.MatmulProblem(40, 40, 40, a, b)
	}
	cv := func() warp.Problem {
		x, w := workloads.LargeConv1DData(2048, 9, 5)
		return warp.Conv1DProblem(w, x)
	}
	mk := func() string { return workloads.Matmul(10) }
	ck := func() string { return workloads.Conv1D(9, 512) }
	return []fabricCase{
		{"matmul40-arrays1", 1, mk, mm},
		{"matmul40-arrays2", 2, mk, mm},
		{"matmul40-arrays4", 4, mk, mm},
		{"conv2048-arrays4", 4, ck, cv},
	}
}

// zeroInputs builds zero-filled input arrays of the declared sizes —
// inputs never affect timing (the machine is statically scheduled), so
// zeros keep runs deterministic and cheap.
func zeroInputs(prog *warp.Program) map[string][]float64 {
	in := map[string][]float64{}
	for _, p := range prog.Params() {
		if !p.Out {
			in[p.Name] = make([]float64, p.Size)
		}
	}
	return in
}

// variedInputs builds deterministic non-zero input arrays so the
// fastexec backend comparison checks real arithmetic bit patterns, not
// just zero propagation.  (Timing is input-independent either way.)
func variedInputs(prog *warp.Program) map[string][]float64 {
	in := map[string][]float64{}
	for _, p := range prog.Params() {
		if p.Out {
			continue
		}
		v := make([]float64, p.Size)
		for i := range v {
			v[i] = float64(i%17)/8 - 1.0
		}
		in[p.Name] = v
	}
	return in
}

// wallStats reduces per-iteration wall times to the Wall record.
func wallStats(durs []time.Duration) *Wall {
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &Wall{
		Iters:    len(sorted),
		MedianNS: int64(sorted[len(sorted)/2]),
		MinNS:    int64(sorted[0]),
	}
}

// compileExperiment measures one compilation iters times and reduces
// it to a compile-kind record: total and per-phase wall statistics,
// deterministic µcode counters, and the scheduler roll-up.
func compileExperiment(name, src string, iters int, opts warp.Options) (Experiment, error) {
	var prog *warp.Program
	var err error
	durs := make([]time.Duration, iters)
	phaseDurs := map[string][]time.Duration{}
	var phaseOrder []string
	for i := 0; i < iters; i++ {
		start := time.Now()
		prog, err = warp.Compile(src, opts)
		durs[i] = time.Since(start)
		if err != nil {
			return Experiment{}, fmt.Errorf("%s: %w", name, err)
		}
		for _, ph := range prog.Phases() {
			if _, seen := phaseDurs[ph.Name]; !seen {
				phaseOrder = append(phaseOrder, ph.Name)
			}
			phaseDurs[ph.Name] = append(phaseDurs[ph.Name], time.Duration(ph.Seconds*1e9))
		}
	}
	m := prog.Metrics()
	ex := Experiment{
		Name: name, Kind: "compile",
		Cells: m.Cells, Skew: m.Skew, W2Lines: m.W2Lines,
		CellUcode: m.CellInstrs, IUUcode: m.IUInstrs,
		Wall: wallStats(durs),
	}
	var domNS int64
	for _, name := range phaseOrder {
		w := wallStats(phaseDurs[name])
		ex.CompilePhases = append(ex.CompilePhases, PhaseWall{Name: name, MedianNS: w.MedianNS, MinNS: w.MinNS})
		if w.MedianNS > domNS {
			domNS, ex.DominantPhase = w.MedianNS, name
		}
	}
	if sched := prog.Sched(); sched != nil {
		t := sched.Totals()
		ex.Sched = &t
	}
	return ex, nil
}

// Run executes the benchmark suite: the five Table 7-1 compilations
// (software pipelining on, wall-clock measured per compile) and the
// pinned simulation workloads (compile once, run iters times).  iters
// < 1 is treated as 1.
func Run(iters int) (*Report, error) {
	if iters < 1 {
		iters = 1
	}
	rep := &Report{Schema: Schema}

	for _, cc := range compileCases() {
		ex, err := compileExperiment("compile/"+cc.name, cc.src(), iters, warp.Options{Pipeline: true})
		if err != nil {
			return nil, err
		}
		rep.Experiments = append(rep.Experiments, ex)
	}

	for _, rc := range runCases() {
		prog, err := warp.Compile(rc.src(), warp.Options{Pipeline: rc.pipe})
		if err != nil {
			return nil, fmt.Errorf("run/%s: compile: %w", rc.name, err)
		}
		inputs := zeroInputs(prog)
		var rs *warp.RunStats
		durs := make([]time.Duration, iters)
		for i := 0; i < iters; i++ {
			start := time.Now()
			_, rs, err = prog.Run(inputs)
			durs[i] = time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("run/%s: %w", rc.name, err)
			}
		}
		rep.Experiments = append(rep.Experiments,
			FromRun("run/"+rc.name, prog.Metrics(), rs, wallStats(durs)))
	}

	for _, fc := range fabricCases() {
		prog, err := warp.Compile(fc.tile(), warp.Options{Pipeline: true})
		if err != nil {
			return nil, fmt.Errorf("fabric/%s: compile: %w", fc.name, err)
		}
		prob := fc.prob()
		var fs *warp.FabricStats
		durs := make([]time.Duration, iters)
		for i := 0; i < iters; i++ {
			start := time.Now()
			_, fs, err = prog.RunPartitioned(warp.RunConfig{Arrays: fc.arrays}, prob)
			durs[i] = time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("fabric/%s: %w", fc.name, err)
			}
		}
		rep.Experiments = append(rep.Experiments,
			FromFabric("fabric/"+fc.name, prog.Metrics(), fs, wallStats(durs)))
	}

	if ex, err := runFastexec(iters); err != nil {
		return nil, err
	} else {
		rep.Experiments = append(rep.Experiments, ex)
	}

	return rep, nil
}

// runFastexec benchmarks the two execution backends against each other
// on one verified workload: a 32×32 matmul, large enough that the
// simulator's per-cycle interpretation dominates and the fast dataflow
// executor's advantage is well clear of the FastexecSpeedupFloor gate
// (the list-scheduled variant is used deliberately — its longer
// schedule costs the simulator proportionally but the dataflow
// executor barely at all, holding a ~2× margin over the floor).
// The record is only emitted when both backends agree exactly — same
// cycle count, every output word bit-identical — so a divergence fails
// the whole suite rather than publishing a tainted speedup.
func runFastexec(iters int) (Experiment, error) {
	prog, err := warp.Compile(workloads.Matmul(32), warp.Options{Verify: true})
	if err != nil {
		return Experiment{}, fmt.Errorf("fastexec/matmul32: compile: %w", err)
	}
	inputs := variedInputs(prog)
	run := func(backend string) (map[string][]float64, *warp.RunStats, *Wall, error) {
		var out map[string][]float64
		var rs *warp.RunStats
		durs := make([]time.Duration, iters)
		for i := 0; i < iters; i++ {
			start := time.Now()
			out, rs, err = prog.RunWith(warp.RunConfig{Backend: backend}, inputs)
			durs[i] = time.Since(start)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("fastexec/matmul32: %s: %w", backend, err)
			}
		}
		return out, rs, wallStats(durs), nil
	}
	simOut, simRS, simWall, err := run(warp.BackendSim)
	if err != nil {
		return Experiment{}, err
	}
	fastOut, fastRS, fastWall, err := run(warp.BackendFast)
	if err != nil {
		return Experiment{}, err
	}
	if simRS.Cycles != fastRS.Cycles {
		return Experiment{}, fmt.Errorf("fastexec/matmul32: backends disagree on cycles: sim %d, fast %d",
			simRS.Cycles, fastRS.Cycles)
	}
	for name, want := range simOut {
		got := fastOut[name]
		if len(got) != len(want) {
			return Experiment{}, fmt.Errorf("fastexec/matmul32: output %q: sim %d words, fast %d",
				name, len(want), len(got))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return Experiment{}, fmt.Errorf("fastexec/matmul32: output %q[%d]: sim %v, fast %v (not bit-identical)",
					name, i, want[i], got[i])
			}
		}
	}
	ex := FromRun("fastexec/matmul32", prog.Metrics(), fastRS, fastWall)
	ex.Kind = "fastexec"
	ex.SimWall = simWall
	// The gated ratio uses the per-backend minima: min approximates
	// each backend's noise floor, so a transient load spike during one
	// iteration cannot push the ratio through the floor spuriously.
	if fastWall.MinNS > 0 {
		ex.Speedup = float64(simWall.MinNS) / float64(fastWall.MinNS)
	}
	return ex, nil
}

// CompileDriftFactor is the growth factor past which a compile phase's
// median wall time draws a warning naming the phase.  Wall times vary
// with the host, so 2× keeps the signal above cross-machine noise.
const CompileDriftFactor = 2.0

// CompilePhaseFloorNS exempts microsecond-scale phases from per-phase
// gating: below this both ratios are dominated by timer granularity
// and cache state, so a drift ratio carries no signal.  A genuine
// superlinear blowup in a tiny phase crosses the floor within a
// release or two and is gated then.
const CompilePhaseFloorNS = 1_000_000 // 1ms

// PredictionErrorWarnFactor is the cost-model prediction error (the
// larger of predicted/actual and actual/predicted wall time) past which
// the gate warns: the backend chooser is running on a model that no
// longer resembles this host, so its sim-vs-fast picks may be wrong.
// Fresh-only and advisory — wall predictions are host-specific, so they
// never hard-fail against a baseline recorded elsewhere.
const PredictionErrorWarnFactor = 3.0

// BaselineFile is the committed baseline report the gate compares
// against, relative to the repository root.
const BaselineFile = "BENCH_15.json"

// FastexecSpeedupFloor is the minimum wall speedup the fast dataflow
// executor must hold over the cycle-accurate simulator on the fastexec
// experiment.  Unlike other wall metrics this one IS gated hard: both
// backends run the same program on the same host in the same process,
// so the ratio cancels host speed and a collapse below the floor means
// the fast path itself degraded.  The numerator is the pre-decoded
// simulator of PR 15, which runs this workload about 2.4× faster than
// the tree-walking one the old 5× floor was set against; the measured
// min-over-min ratio is now ~3.8× (median of 13 suite runs on the
// 2-vCPU development host, range 2.5–5.5) and the floor is half of it,
// the same ~2× margin as before.
const FastexecSpeedupFloor = 1.9

// Verdict is the outcome of comparing a fresh report to a baseline.
// Regressions fail the gate; warnings are advisory (wall-clock drift,
// improvements awaiting a baseline refresh, coverage changes).
type Verdict struct {
	Regressions []string
	Warnings    []string
}

// OK reports whether the gate passes.
func (v *Verdict) OK() bool { return len(v.Regressions) == 0 }

// Compare gates fresh against base.  Deterministic counters (cycles,
// µcode sizes, fabric tile counts and modeled machine times) changing
// by more than cycleThreshold (a fraction; 0
// means any change) in the regression direction fail; any other
// deterministic change warns so the baseline gets refreshed.  Wall
// medians drifting up by more than wallThreshold warn.
//
// compileThreshold promotes per-phase compile-time drift from warning
// to regression: when > 0, a compile phase whose median wall time grew
// past compileThreshold× the baseline fails the gate; at 0 drift past
// CompileDriftFactor only warns.  Fastexec experiments are gated on
// FastexecSpeedupFloor regardless of thresholds; speedup drift against
// the baseline's ratio stays warn-only like any other wall metric.
func Compare(base, fresh *Report, cycleThreshold, wallThreshold, compileThreshold float64) *Verdict {
	v := &Verdict{}
	baseBy := map[string]*Experiment{}
	for i := range base.Experiments {
		baseBy[base.Experiments[i].Name] = &base.Experiments[i]
	}
	freshNames := map[string]bool{}

	for i := range fresh.Experiments {
		f := &fresh.Experiments[i]
		freshNames[f.Name] = true
		if f.Kind == "fastexec" && f.Speedup < FastexecSpeedupFloor {
			v.Regressions = append(v.Regressions,
				fmt.Sprintf("%s: fast-backend speedup %.1fx fell below the %.1fx floor",
					f.Name, f.Speedup, FastexecSpeedupFloor))
		}
		if d := f.Decision; d != nil {
			if ef := d.ErrorFactor(); ef > PredictionErrorWarnFactor {
				v.Warnings = append(v.Warnings,
					fmt.Sprintf("%s: cost model predicted %s for the %s backend but the run took %s (%.1fx off, warn factor %gx) — recalibrate or revisit the model constants",
						f.Name, time.Duration(d.PredictedWallNS()), d.Backend,
						time.Duration(d.ActualWallNS), ef, PredictionErrorWarnFactor))
			}
		}
		b, ok := baseBy[f.Name]
		if !ok {
			v.Warnings = append(v.Warnings,
				fmt.Sprintf("%s: new experiment (absent from baseline); refresh BENCH_*.json", f.Name))
			continue
		}
		for _, cnt := range []struct {
			field    string
			old, new int64
		}{
			{"cycles", b.Cycles, f.Cycles},
			{"cell µcode", int64(b.CellUcode), int64(f.CellUcode)},
			{"IU µcode", int64(b.IUUcode), int64(f.IUUcode)},
			{"skew", b.Skew, f.Skew},
			{"tiles", int64(b.Tiles), int64(f.Tiles)},
			{"arrays", int64(b.Arrays), int64(f.Arrays)},
			{"aggregate cycles", b.AggCycles, f.AggCycles},
			{"makespan cycles", b.Makespan, f.Makespan},
		} {
			if cnt.old == cnt.new {
				continue
			}
			if cnt.old == 0 {
				v.Warnings = append(v.Warnings, fmt.Sprintf("%s: %s appeared (%d); refresh BENCH_*.json",
					f.Name, cnt.field, cnt.new))
				continue
			}
			frac := float64(cnt.new-cnt.old) / float64(cnt.old)
			switch {
			case frac > cycleThreshold:
				v.Regressions = append(v.Regressions,
					fmt.Sprintf("%s: %s regressed %d -> %d (%+.1f%%, threshold %.1f%%)",
						f.Name, cnt.field, cnt.old, cnt.new, 100*frac, 100*cycleThreshold))
			default:
				dir := "improved"
				if frac > 0 {
					dir = "grew"
				}
				v.Warnings = append(v.Warnings,
					fmt.Sprintf("%s: %s %s %d -> %d (%+.1f%%); refresh BENCH_*.json to lock it in",
						f.Name, cnt.field, dir, cnt.old, cnt.new, 100*frac))
			}
		}
		if b.Wall != nil && f.Wall != nil && b.Wall.MedianNS > 0 {
			drift := float64(f.Wall.MedianNS-b.Wall.MedianNS) / float64(b.Wall.MedianNS)
			if drift > wallThreshold {
				v.Warnings = append(v.Warnings,
					fmt.Sprintf("%s: wall median drifted %s -> %s (%+.0f%%) — informational, hosts differ",
						f.Name, time.Duration(b.Wall.MedianNS), time.Duration(f.Wall.MedianNS), 100*drift))
			}
		}
		// Speedup drift relative to the baseline's measured ratio is
		// advisory (the FastexecSpeedupFloor above is the hard gate).
		if f.Kind == "fastexec" && b.Speedup > 0 && f.Speedup < b.Speedup*(1-wallThreshold) {
			v.Warnings = append(v.Warnings,
				fmt.Sprintf("%s: fast-backend speedup drifted %.1fx -> %.1fx — informational while above the %.1fx floor",
					f.Name, b.Speedup, f.Speedup, FastexecSpeedupFloor))
		}
		// Per-phase compile-time drift: a phase whose median wall time
		// grew past CompileDriftFactor× the baseline names itself, so a
		// superlinear scheduler blowup is identified, not just noticed.
		// A positive compileThreshold promotes drift past that factor
		// from warning to hard failure.
		if len(b.CompilePhases) > 0 && len(f.CompilePhases) > 0 {
			basePhase := map[string]int64{}
			for _, ph := range b.CompilePhases {
				basePhase[ph.Name] = ph.MedianNS
			}
			for _, ph := range f.CompilePhases {
				old := basePhase[ph.Name]
				if old <= 0 {
					continue
				}
				ratio := float64(ph.MedianNS) / float64(old)
				switch {
				case old < CompilePhaseFloorNS && ph.MedianNS < CompilePhaseFloorNS:
					// Sub-floor phases are pure scheduler noise: a 3µs
					// phase tripling is a cache miss, not a regression.
					// A real blowup crosses the floor and is caught.
				case compileThreshold > 0 && ratio > compileThreshold:
					v.Regressions = append(v.Regressions,
						fmt.Sprintf("%s: compile phase %q regressed %s -> %s (%.1fx, threshold %gx)",
							f.Name, ph.Name, time.Duration(old), time.Duration(ph.MedianNS), ratio, compileThreshold))
				case ratio > CompileDriftFactor:
					v.Warnings = append(v.Warnings,
						fmt.Sprintf("%s: compile phase %q drifted %s -> %s (>%gx) — check the scheduler counters",
							f.Name, ph.Name, time.Duration(old), time.Duration(ph.MedianNS), CompileDriftFactor))
				}
			}
		}
	}
	for name := range baseBy {
		if !freshNames[name] {
			v.Regressions = append(v.Regressions,
				fmt.Sprintf("%s: experiment vanished from the fresh run (coverage loss)", name))
		}
	}
	sort.Strings(v.Regressions)
	sort.Strings(v.Warnings)
	return v
}
