// Command warpbench regenerates every table and figure of the paper's
// evaluation as text, next to the published values.
//
// Usage:
//
//	warpbench [-exp name] [-pipeline]
//
// Experiments: fig3-1, fig4-2, fig5-1, table6-1, table6-2, table6-3,
// table6-4, table6-5, table7-1, throughput, utilization, hotspot,
// varskew, fabric, fastexec, all (default).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"warp"
	"warp/internal/commgraph"
	"warp/internal/driver"
	"warp/internal/fabric"
	"warp/internal/interp"
	"warp/internal/ir"
	"warp/internal/paper"
	"warp/internal/skew"
	"warp/internal/w2"
	"warp/internal/workloads"
)

var pipeline = flag.Bool("pipeline", true, "software pipeline innermost loops in table7-1/throughput")

type experiment struct {
	name string
	run  func(io.Writer) error
}

// experiments lists every experiment in the order `-exp all` prints them.
var experiments = []experiment{
	{"fig3-1", fig31},
	{"fig4-2", fig42},
	{"fig5-1", fig51},
	{"table6-1", table61},
	{"table6-2", table62},
	{"table6-3", table63},
	{"table6-4", table64},
	{"table6-5", table65},
	{"table7-1", table71},
	{"throughput", throughput},
	{"utilization", utilization},
	{"hotspot", hotspot},
	{"varskew", varskew},
	{"fabric", fabricScaling},
	{"fastexec", fastexec},
}

// render writes the experiment under its banner.
func (e experiment) render(w io.Writer) error {
	fmt.Fprintf(w, "==================== %s ====================\n", e.name)
	if err := e.run(w); err != nil {
		return fmt.Errorf("%s: %w", e.name, err)
	}
	fmt.Fprintln(w)
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment to regenerate")
	flag.Parse()

	var names []string
	ran := false
	for _, e := range experiments {
		names = append(names, e.name)
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		if err := e.render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "warpbench: %v\n", err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "warpbench: unknown experiment %q (want one of %s, all)\n",
			*exp, strings.Join(names, ", "))
		os.Exit(2)
	}
}

// fig31 compares the SIMD and skewed computation models on the paper's
// example: a 4-step stage whose step 4 uses the neighbour's step-4
// result.
func fig31(w io.Writer) error {
	const stage, cells = 4, 3
	deps := []paper.StageDep{{Producer: 3, Consumer: 3}}
	simd := paper.SIMDLatency(stage, deps)
	skewed := paper.SkewedLatency(stage, deps)
	fmt.Fprintf(w, "stage of %d steps, dependence: step 4 -> neighbour's step 4\n\n", stage)
	fmt.Fprintf(w, "%-28s %8s %8s\n", "", "SIMD", "skewed")
	fmt.Fprintf(w, "%-28s %8d %8d   (paper: 4 vs 1)\n", "latency per cell (cycles)", simd, skewed)
	fmt.Fprintf(w, "%-28s %8d %8d\n", "latency through 3 cells",
		paper.PipelineLatency(cells, simd, stage), paper.PipelineLatency(cells, skewed, stage))
	fmt.Fprintln(w, "\nstart cycle of data set d on cell c:")
	fmt.Fprintf(w, "%6s", "")
	for d := int64(0); d < 3; d++ {
		fmt.Fprintf(w, "   set%d(SIMD) set%d(skew)", d, d)
	}
	fmt.Fprintln(w)
	for c := int64(0); c < cells; c++ {
		fmt.Fprintf(w, "cell %d", c)
		for d := int64(0); d < 3; d++ {
			fmt.Fprintf(w, "   %10d %10d",
				paper.StageStart(true, c, d, simd, stage),
				paper.StageStart(false, c, d, skewed, stage))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// fig42 reproduces the polynomial program's communication trace on the
// first two cells.
func fig42(w io.Writer) error {
	src := workloads.PolynomialPaper()
	prog, err := warp.Compile(src, warp.Options{})
	if err != nil {
		return err
	}
	inputs := map[string][]float64{}
	z := make([]float64, 100)
	c := make([]float64, 10)
	for i := range z {
		z[i] = float64(i)
	}
	for i := range c {
		c[i] = 100 + float64(i) // c[i] recognizable in the trace
	}
	inputs["z"], inputs["c"] = z, c
	_ = prog
	mod, err := w2.Parse(src)
	if err != nil {
		return err
	}
	info, err := w2.Analyze(mod)
	if err != nil {
		return err
	}
	traces, err := interp.RunTrace(info, inputs, 2, 14)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "first communication steps (paper's Figure 4-2; c[i] shown as 100+i):")
	fmt.Fprintf(w, "%-28s | %-28s\n", "Cell 0", "Cell 1")
	max := len(traces[0])
	if len(traces[1]) > max {
		max = len(traces[1])
	}
	for i := 0; i < max; i++ {
		left, right := "", ""
		if i < len(traces[0]) {
			left = traces[0][i].String()
		}
		if i < len(traces[1]) {
			right = traces[1][i].String()
		}
		fmt.Fprintf(w, "%-28s | %-28s\n", left, right)
	}
	return nil
}

// fig51 analyzes the two programs of Figure 5-1: A passes unrelated
// data (no communication cycle), B forwards what it receives (a right
// cycle).
func fig51(w io.Writer) error {
	progA := `
module a (xs in, ys out)
float xs[8];
float ys[8];
cellprogram (cid : 0 : 3)
begin
    function f
    begin
        float v, w;
        int i;
        for i := 0 to 7 do begin
            receive (L, X, v, xs[i]);
            w := v * 2.0;
            send (R, X, w, ys[i]);
        end;
    end
    call f;
end
`
	// In program A each cell's send is data-dependent on its receive —
	// which IS the paper's program B shape for W2 (receive, then send
	// the received data).  A W2 program whose send does not depend on
	// its receive sends locally produced data:
	progIndep := `
module indep (xs in, ys out)
float xs[8];
float ys[8];
cellprogram (cid : 0 : 3)
begin
    function f
    begin
        float v, acc;
        int i;
        acc := 1.0;
        for i := 0 to 7 do begin
            receive (L, X, v, xs[i]);
            acc := acc + 1.0;
            send (R, X, acc, ys[i]);
        end;
    end
    call f;
end
`
	for _, tc := range []struct{ name, src, note string }{
		{"program A (independent send)", progIndep, "communication edge completes no cycle"},
		{"program B (forwards its input)", progA, "right cycle: send depends on receive"},
	} {
		mod, err := w2.Parse(tc.src)
		if err != nil {
			return err
		}
		info, err := w2.Analyze(mod)
		if err != nil {
			return err
		}
		p, err := ir.Build(info)
		if err != nil {
			return err
		}
		a := commgraph.Analyze(p)
		fmt.Fprintf(w, "%-32s right-cycle=%-5v left-cycle=%-5v mappable=%v  (%s)\n",
			tc.name, a.RightCycle, a.LeftCycle, a.Mappable(), tc.note)
	}
	return nil
}

func table61(w io.Writer) error {
	p := paper.Fig62()
	d := timingTable(w, p, 3)
	fmt.Fprintln(w, "\ntwo cells at the minimum skew (paper's Figure 6-3):")
	fmt.Fprint(w, paper.TwoCellTrace(p, d))
	return nil
}

func table62(w io.Writer) error {
	timingTable(w, paper.Fig64(), 18)
	return nil
}

// timingTable prints τ_O(n), τ_I(n) and their difference for every
// ordinal of p against itself, and returns the largest difference: the
// minimum skew, which the paper gives as paperSkew.
func timingTable(w io.Writer, p *skew.Prog, paperSkew int) int64 {
	to := paper.Times(p, skew.Output)
	ti := paper.Times(p, skew.Input)
	fmt.Fprintf(w, "%-8s %6s %6s %10s\n", "number", "τ_O", "τ_I", "τ_O-τ_I")
	maxd := int64(-1 << 62)
	for n := range to {
		d := to[n] - ti[n]
		maxd = max(maxd, d)
		fmt.Fprintf(w, "%-8d %6d %6d %10d\n", n, to[n], ti[n], d)
	}
	fmt.Fprintf(w, "%-8s %6s %6s %10d   (paper: %d)\n", "max", "", "", maxd, paperSkew)
	return maxd
}

func table63(w io.Writer) error {
	p := paper.Fig64()
	fmt.Fprintln(w, "characteristic vectors R, N, S, L, T (paper's Table 6-3):")
	for _, kind := range []skew.Kind{skew.Input, skew.Output} {
		for _, v := range paper.Statements(p, kind) {
			fmt.Fprintf(w, "  %s\n", v)
		}
	}
	return nil
}

func table64(w io.Writer) error {
	p := paper.Fig64()
	fmt.Fprintln(w, "closed-form timing functions and domains (paper's Table 6-4):")
	for _, kind := range []skew.Kind{skew.Input, skew.Output} {
		for _, v := range paper.Statements(p, kind) {
			sym := paper.NewTimingFunc(v).Symbolic()
			fmt.Fprintf(w, "  %s(%d): τ(n) = %-34s  [%s]\n", kindLetter(kind), v.ID, sym, sym.DomainString())
		}
	}
	// The §6.2.1 pair analyses.
	ins := paper.Statements(p, skew.Input)
	outs := paper.Statements(p, skew.Output)
	fmt.Fprintln(w, "\npair analyses (§6.2.1):")
	for _, pc := range []struct {
		o, i  *paper.Vectors
		paper string
	}{
		{outs[1], ins[0], "disjoint"},
		{outs[0], ins[0], "completely overlapped, bound 17"},
		{outs[4], ins[0], "partially overlapped, bound 17+2/3"},
	} {
		pb := paper.AnalyzePair(pc.o, pc.i, paper.BoundPaper)
		if pb.Overlap == paper.Disjoint {
			fmt.Fprintf(w, "  O(%d) x I(%d): %-24s              (paper: %s)\n", pc.o.ID, pc.i.ID, pb.Overlap, pc.paper)
		} else {
			fmt.Fprintf(w, "  O(%d) x I(%d): %-24s bound %-6s  (paper: %s)\n", pc.o.ID, pc.i.ID, pb.Overlap, pb.Bound, pc.paper)
		}
	}
	b, _, err := paper.MinSkewBound(p, p, paper.BoundPaper)
	if err != nil {
		return err
	}
	bt, _, err := paper.MinSkewBound(p, p, paper.BoundTight)
	if err != nil {
		return err
	}
	exact, err := paper.MinSkewExact(p, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nminimum skew: exact %d; pairwise bound %s (paper mode), %s (tight mode)\n", exact, b, bt)
	return nil
}

func kindLetter(k skew.Kind) string {
	if k == skew.Input {
		return "I"
	}
	return "O"
}

func table65(w io.Writer) error {
	rows, err := paper.Table65()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "operand allocations for a[i,j+1] and b[i+j,j] (paper's Table 6-5):")
	fmt.Fprint(w, paper.FormatTable65(rows))
	fmt.Fprintln(w, "paper:                              3/6/2, 4/2/2, 5/1/3")
	return nil
}

// table71 compiles the five sample programs at the paper's sizes.
func table71(w io.Writer) error {
	want := map[string][3]int{ // W2 lines, cell µcode, IU µcode
		"1d-conv":    {59, 69, 72},
		"binop":      {61, 118, 130},
		"colorseg":   {67, 477, 509},
		"mandelbrot": {96, 1709, 1861},
		"polynomial": {41, 228, 249},
	}
	paperTime := map[string]string{
		"1d-conv": "4m58s", "binop": "5m1s", "colorseg": "version n/a",
		"mandelbrot": "21m55s", "polynomial": "15m32s",
	}
	rows := []struct {
		name string
		src  string
	}{
		{"1d-conv", workloads.Conv1DPaper()},
		{"binop", workloads.BinopPaper()},
		{"colorseg", workloads.ColorSegPaper()},
		{"mandelbrot", workloads.MandelbrotPaper()},
		{"polynomial", workloads.PolynomialPaper()},
	}
	fmt.Fprintf(w, "%-12s %9s %11s %9s %13s   %s\n",
		"name", "W2 lines", "cell µcode", "IU µcode", "compile time", "(paper: lines/cell/IU, time)")
	for _, r := range rows {
		prog, err := warp.Compile(r.src, warp.Options{Pipeline: *pipeline})
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		// The paper's compiler had no verifier: its time is the phases
		// before verify.
		var el time.Duration
		for _, ph := range prog.Phases() {
			if ph.Name == "verify" {
				break
			}
			el += time.Duration(ph.Seconds * float64(time.Second))
		}
		m := prog.Metrics()
		p := want[r.name]
		fmt.Fprintf(w, "%-12s %9d %11d %9d %13s   (%d/%d/%d, %s)\n",
			r.name, m.W2Lines, m.CellInstrs, m.IUInstrs, el.Round(time.Millisecond),
			p[0], p[1], p[2], paperTime[r.name])
	}
	return nil
}

// throughput reproduces the §2/§7 throughput claims: one result per
// cycle in the inner loops of 1d-conv and polynomial.  Two problem
// sizes separate the steady-state cost per result (the initiation
// interval) from the one-time pipeline-fill and skew latency.
func throughput(w io.Writer) error {
	type sized struct {
		src     string
		results int64
		in      map[string][]float64
	}
	cases := []struct {
		name  string
		small sized
		large sized
	}{
		{
			"polynomial",
			sized{workloads.Polynomial(10, 100), 100, map[string][]float64{
				"z": make([]float64, 100), "c": make([]float64, 10)}},
			sized{workloads.Polynomial(10, 400), 400, map[string][]float64{
				"z": make([]float64, 400), "c": make([]float64, 10)}},
		},
		{
			"1d-conv",
			sized{workloads.Conv1D(9, 512), 511, map[string][]float64{
				"x": make([]float64, 512), "w": make([]float64, 9)}},
			sized{workloads.Conv1D(9, 2048), 2047, map[string][]float64{
				"x": make([]float64, 2048), "w": make([]float64, 9)}},
		},
	}
	fmt.Fprintf(w, "%-12s %-19s %12s %16s   %s\n", "program", "schedule", "cycles", "steady cyc/res",
		"FPU utilization   (paper: 1 result/cycle, units fully utilized)")
	for _, tc := range cases {
		for _, pipe := range []bool{false, true} {
			run := func(s sized) (int64, *warp.RunStats, error) {
				prog, err := warp.Compile(s.src, warp.Options{Pipeline: pipe})
				if err != nil {
					return 0, nil, err
				}
				_, stats, err := prog.Run(s.in)
				if err != nil {
					return 0, nil, err
				}
				return stats.Cycles, stats, nil
			}
			c1, _, err := run(tc.small)
			if err != nil {
				return err
			}
			c2, st2, err := run(tc.large)
			if err != nil {
				return err
			}
			marginal := float64(c2-c1) / float64(tc.large.results-tc.small.results)
			mode := "list-scheduled"
			if pipe {
				mode = "software-pipelined"
			}
			fmt.Fprintf(w, "%-12s %-19s %12d %16.2f   add %3.0f%%  mul %3.0f%%\n",
				tc.name, mode, c2, marginal,
				100*st2.AddUtilization, 100*st2.MulUtilization)
		}
	}
	return nil
}

// utilization prints the observability layer's per-cell utilization
// and stall-attribution tables for the headline workloads — the
// dynamic, inspectable form of §7's "all the arithmetic units are
// fully utilized in the innermost loop".  The cases compile, simulate
// and trace concurrently, each with its own recorder; this is also the
// concurrent path the CI race detector exercises.
func utilization(w io.Writer) error {
	type job struct {
		name string
		src  string
		pipe bool
		in   map[string][]float64
	}
	jobs := []job{
		{"polynomial, list-scheduled", workloads.Polynomial(10, 100), false,
			map[string][]float64{"z": make([]float64, 100), "c": make([]float64, 10)}},
		{"polynomial, software-pipelined", workloads.Polynomial(10, 100), true,
			map[string][]float64{"z": make([]float64, 100), "c": make([]float64, 10)}},
		{"1d-conv, software-pipelined", workloads.Conv1D(9, 512), true,
			map[string][]float64{"x": make([]float64, 512), "w": make([]float64, 9)}},
		{"matmul 10x10", workloads.Matmul(10), true,
			map[string][]float64{"a": make([]float64, 100), "bmat": make([]float64, 100)}},
	}
	reports := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			prog, err := warp.Compile(j.src, warp.Options{Pipeline: j.pipe})
			if err != nil {
				errs[i] = err
				return
			}
			// Stream the Chrome trace to a scratch buffer so the full
			// recorder path runs, then report from the profile.
			var trace bytes.Buffer
			_, stats, err := prog.RunWith(warp.RunConfig{Trace: &trace}, j.in)
			if err != nil {
				errs[i] = err
				return
			}
			reports[i] = stats.Profile.UtilizationReport()
		}(i, j)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", j.name, errs[i])
		}
		fmt.Fprintf(w, "--- %s ---\n%s\n", j.name, reports[i])
	}
	return nil
}

// hotspot is the utilization-by-source experiment: for the headline
// workloads it joins the simulator's exact per-µPC cycle counters with
// the compiler's debug map and prints where the machine's cycles went
// in W2 source terms — the hot statements, the stall breakdown per
// line, and the scheduler-introspection counters that explain how each
// loop's schedule came to be.  The busy cycles of the hottest lines
// are the dynamic form of §7's utilization claim; the starved/bubble
// columns show exactly which statements pay the pipeline's overhead.
func hotspot(w io.Writer) error {
	type job struct {
		name string
		src  string
		pipe bool
		in   map[string][]float64
	}
	jobs := []job{
		{"polynomial, list-scheduled", workloads.Polynomial(10, 100), false,
			map[string][]float64{"z": make([]float64, 100), "c": make([]float64, 10)}},
		{"polynomial, software-pipelined", workloads.Polynomial(10, 100), true,
			map[string][]float64{"z": make([]float64, 100), "c": make([]float64, 10)}},
		{"1d-conv, software-pipelined", workloads.Conv1D(9, 512), true,
			map[string][]float64{"x": make([]float64, 512), "w": make([]float64, 9)}},
		{"matmul 10x10", workloads.Matmul(10), true,
			map[string][]float64{"a": make([]float64, 100), "bmat": make([]float64, 100)}},
	}
	for _, j := range jobs {
		prog, err := warp.Compile(j.src, warp.Options{Pipeline: j.pipe})
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		_, rs, err := prog.RunWith(warp.RunConfig{Profile: true}, j.in)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		fmt.Fprintf(w, "--- %s ---\n%s\n%s\n", j.name, rs.Source.Report(), prog.SchedReport())
	}
	return nil
}

// fabricScaling runs the multi-array fabric's scaling experiment: a
// 40×40×40 matmul tiled over the paper's ten-cell array, farmed across
// 1, 2 and 4 simulated arrays, plus an oversized convolution.  The
// modeled speedup (aggregate machine time over the list-scheduled
// makespan) is deterministic; the wall column depends on host CPUs.
func fabricScaling(w io.Writer) error {
	a, b := workloads.LargeMatmulData(40, 40, 40, 5)
	prob := warp.MatmulProblem(40, 40, 40, a, b)
	prog, err := warp.Compile(workloads.Matmul(10), warp.Options{Pipeline: *pipeline})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "matmul 40x40x40 over the 10-cell kernel (64 tiles), by array count:")
	fmt.Fprintf(w, "%-8s %8s %14s %14s %10s %12s\n",
		"arrays", "tiles", "aggregate cyc", "makespan cyc", "speedup", "wall")
	for _, arrays := range []int{1, 2, 4} {
		_, fs, err := prog.RunPartitioned(warp.RunConfig{Arrays: arrays}, prob)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %8d %14d %14d %9.2fx %12s\n",
			arrays, fs.Tiles, fs.AggregateCycles, fs.MakespanCycles, fs.Speedup,
			time.Duration(fs.WallNS).Round(time.Microsecond))
	}
	x, kern := workloads.LargeConv1DData(2048, 9, 5)
	cprog, err := warp.Compile(workloads.Conv1D(9, 512), warp.Options{Pipeline: *pipeline})
	if err != nil {
		return err
	}
	_, fs, err := cprog.RunPartitioned(warp.RunConfig{Arrays: 4}, warp.Conv1DProblem(kern, x))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nconv1d 2048 points, 9-weight kernel, 512-point windows on 4 arrays:\n")
	fmt.Fprintf(w, "%d tiles, aggregate %d cyc, makespan %d cyc, speedup %.2fx, wall %s\n",
		fs.Tiles, fs.AggregateCycles, fs.MakespanCycles, fs.Speedup,
		time.Duration(fs.WallNS).Round(time.Microsecond))
	return tileBatching(w)
}

// tileBatching times what one tile of a partitioned job costs an array,
// staging and stitching left out: one tile a walk (driver.RunWith, the
// farm's per-tile path) and 32 tiles sharing one walk of the simulated
// machine, and on the fast executor one, 8 and 32 tiles a walk of the
// kernel's plan (driver.RunBatch, what the farm hands an array).  The two jobs are the benchmark's
// fabric-farm pair; every row is the best of five passes over all the
// job's tiles on one goroutine.
func tileBatching(w io.Writer) error {
	a, b := workloads.LargeMatmulData(80, 80, 80, 5)
	x, kern := workloads.LargeConv1DData(8192, 9, 5)
	fmt.Fprintln(w, "\none tile's cost by how many tiles share a walk (us/tile, best of 5 passes):")
	fmt.Fprintf(w, "%-10s %6s %10s %10s %10s %10s %10s %12s %12s\n",
		"job", "tiles", "sim x1", "sim x32", "fast x1", "fast x8", "fast x32", "sim x1/x32", "fast x1/x32")
	for _, j := range []struct {
		name, kernel string
		plan         func(fabric.TileProgram, fabric.Limits) (*fabric.Plan, error)
	}{
		{"mm80", workloads.Matmul(10), func(tp fabric.TileProgram, l fabric.Limits) (*fabric.Plan, error) {
			return fabric.PlanMatmul(fabric.Matmul{M: 80, K: 80, N: 80, A: a, B: b}, tp, l)
		}},
		{"conv8192", workloads.Conv1D(9, 512), func(tp fabric.TileProgram, l fabric.Limits) (*fabric.Plan, error) {
			return fabric.PlanConv1D(fabric.Conv1D{Kernel: kern, X: x}, tp, l)
		}},
	} {
		c, err := driver.Compile(j.kernel, driver.Options{Pipeline: true})
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		tp := fabric.TileProgram{Cells: c.Cells}
		for _, sym := range c.Info.HostSyms {
			if prm := (fabric.Param{Name: sym.Name, Size: sym.Type.Size()}); sym.Out {
				tp.Out = prm
			} else {
				tp.In = append(tp.In, prm)
			}
		}
		pl, err := j.plan(tp, fabric.DefaultLimits(c.Cells))
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		inputs := make([]map[string][]float64, len(pl.Tiles))
		for i, t := range pl.Tiles {
			inputs[i] = pl.Inputs(t)
		}
		perTile := func(backend string, width int) (float64, error) {
			best := time.Duration(1<<62 - 1)
			for pass := 0; pass < 5; pass++ {
				start := time.Now()
				for lo := 0; lo < len(inputs); lo += width {
					if _, _, err := driver.RunBatch(c, inputs[lo:min(lo+width, len(inputs))], driver.RunOptions{Backend: backend}); err != nil {
						return 0, fmt.Errorf("%s: %w", j.name, err)
					}
				}
				best = min(best, time.Since(start))
			}
			return float64(best.Microseconds()) / float64(len(inputs)), nil
		}
		var us [5]float64
		for i, m := range []struct {
			backend string
			width   int
		}{{driver.BackendSim, 1}, {driver.BackendSim, 32}, {driver.BackendFast, 1}, {driver.BackendFast, 8}, {driver.BackendFast, 32}} {
			if us[i], err = perTile(m.backend, m.width); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%-10s %6d %10.1f %10.1f %10.1f %10.1f %10.1f %11.1fx %11.1fx\n",
			j.name, len(inputs), us[0], us[1], us[2], us[3], us[4], us[0]/us[1], us[2]/us[4])
	}
	return nil
}

// fastexec pits the two execution backends against each other on
// verified matmuls: the cycle-accurate simulator interprets every cell
// every cycle, while the fast dataflow executor replays the verifier's
// proven schedule over host slices and reports the same closed-form
// cycle count.  The experiment hard-fails unless outputs are
// bit-identical and modeled cycles agree exactly.  The wall speedup is
// this host's; CI gates the ledger's geomean over eight programs
// (scripts/ledgergate.go).
func fastexec(w io.Writer) error {
	const iters = 3
	fmt.Fprintln(w, "verified matmul on both backends (outputs bit-checked, cycles must agree):")
	fmt.Fprintf(w, "%-10s %10s %12s %12s %10s\n", "size", "cycles", "sim wall", "fast wall", "speedup")
	for _, n := range []int{16, 24, 32} {
		prog, err := warp.Compile(workloads.Matmul(n), warp.Options{Pipeline: *pipeline})
		if err != nil {
			return fmt.Errorf("matmul%d: %w", n, err)
		}
		inputs := map[string][]float64{
			"a":    make([]float64, n*n),
			"bmat": make([]float64, n*n),
		}
		for i := range inputs["a"] {
			inputs["a"][i] = float64(i%13)/4 - 1.5
			inputs["bmat"][i] = float64((i*7)%11)/8 - 0.5
		}
		run := func(backend string) (map[string][]float64, *warp.RunStats, time.Duration, error) {
			best := time.Duration(1<<62 - 1)
			var out map[string][]float64
			var rs *warp.RunStats
			for i := 0; i < iters; i++ {
				start := time.Now()
				o, r, err := prog.RunWith(warp.RunConfig{Backend: backend}, inputs)
				if err != nil {
					return nil, nil, 0, err
				}
				if el := time.Since(start); el < best {
					best = el
				}
				out, rs = o, r
			}
			return out, rs, best, nil
		}
		simOut, simRS, simWall, err := run(warp.BackendSim)
		if err != nil {
			return fmt.Errorf("matmul%d sim: %w", n, err)
		}
		fastOut, fastRS, fastWall, err := run(warp.BackendFast)
		if err != nil {
			return fmt.Errorf("matmul%d fast: %w", n, err)
		}
		if simRS.Cycles != fastRS.Cycles {
			return fmt.Errorf("matmul%d: cycle divergence: sim %d, fast %d", n, simRS.Cycles, fastRS.Cycles)
		}
		for i := range simOut["c"] {
			if math.Float64bits(simOut["c"][i]) != math.Float64bits(fastOut["c"][i]) {
				return fmt.Errorf("matmul%d: c[%d] diverged: sim %v, fast %v",
					n, i, simOut["c"][i], fastOut["c"][i])
			}
		}
		fmt.Fprintf(w, "%-10s %10d %12s %12s %9.1fx\n", fmt.Sprintf("%dx%d", n, n),
			simRS.Cycles, simWall.Round(time.Microsecond), fastWall.Round(time.Microsecond),
			float64(simWall)/float64(fastWall))
	}
	fmt.Fprintln(w, "\n(gate: scripts/ledgergate.go holds the ledger's fastexec.speedup_vs_sim, the geomean over its eight programs)")
	return fastPlans(w)
}

// fastPlans sizes the fast executor's plan for the ledger's eight
// programs at the paper's sizes: a plan keeps the cell program's loops,
// so its words and the bytes it retains follow the microcode while the
// operations it stands for follow the trip counts.  Build time is the
// one walk that validates the plan against the IU's streams.
func fastPlans(w io.Writer) error {
	fmt.Fprintln(w, "\nfast plans at paper size (a plan word is one static microinstruction):")
	fmt.Fprintf(w, "%-16s %10s %10s %12s %12s %10s\n", "program", "cell ucode", "plan words", "dynamic ops", "retained B", "build")
	for _, p := range []struct {
		name, src string
		plain     bool
	}{
		{"polynomial", workloads.PolynomialPaper(), false},
		{"conv1d", workloads.Conv1D(9, 2048), false},
		{"binop", workloads.BinopPaper(), false},
		{"colorseg", workloads.ColorSegPaper(), false},
		{"mandelbrot", workloads.MandelbrotPaper(), false},
		{"fft1024", workloads.FFTPaper(), false}, // backs off to the plain schedule
		{"matmul32", workloads.Matmul(32), false},
		{"matmul32-plain", workloads.Matmul(32), true},
	} {
		c, err := driver.Compile(p.src, driver.Options{Pipeline: !p.plain})
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		plan, err := c.FastPlan()
		build := time.Since(start)
		if err != nil {
			return fmt.Errorf("%s: fast plan: %w", p.name, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		fmt.Fprintf(w, "%-16s %10d %10d %12d %12d %10s\n", p.name, c.Cell.NumInstrs(), plan.Words(), plan.Ops(),
			max(0, int64(after.HeapAlloc)-int64(before.HeapAlloc)), build.Round(10*time.Microsecond))
	}
	return nil
}

// varskew quantifies the §6.2.1 alternative the paper sketches: varying
// the skew (delaying each input individually) lowers buffer demand but
// not latency.  The example is a producer emitting one word every three
// cycles into a consumer that reads back to back.
func varskew(w io.Writer) error {
	prog := paper.Build(
		paper.Rep(50, paper.In()),
		paper.Rep(50, paper.Out(), paper.Nop(), paper.Nop()),
	)
	r, err := paper.VariableSkew(prog, prog)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cell program: 50 back-to-back reads, then one send per 3 cycles x50\n")
	fmt.Fprintf(w, "(the producer dribbles words out while the fixed-skew consumer\n")
	fmt.Fprintf(w, " bunches all its reads late)\n\n")
	fmt.Fprint(w, r.Describe())
	fmt.Fprintf(w, "\n(paper, §6.2.1: inserting delays before each input \"may lower the demand\n")
	fmt.Fprintf(w, "on the size of the buffers... it does not lead to higher utilization\")\n")
	// Also show the worked example.
	p64 := paper.Fig64()
	r64, err := paper.VariableSkew(p64, p64)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nFigure 6-4 program for reference:\n%s", r64.Describe())
	return nil
}
