package warp_test

import (
	"math"
	"testing"

	"warp"
	"warp/internal/workloads"
)

// pinnedBaselines are the deterministic numbers every change is judged
// against: Table 7-1's compiles at paper size, the single-array runs
// behind §7's throughput claims (the first four are TestObsNeutral's
// 1322/225/634/719), the partitioned farms' scaling curve and the
// backend comparison's matmul.  The compiler, both executors and the
// farm's modeled schedule are deterministic, so any drift is a behaviour
// change: a lower number is a result to declare by editing the row, a
// higher one is a regression (EXPERIMENTS.md, "Pinned baselines and the
// ledger gate").
var pinnedBaselines = []struct {
	name string
	src  func() string
	pipe bool

	lines, cells int
	skew         int64
	cell, iu     int // µcode words

	cycles int64 // single-array run; 0 on compile-only and farm rows

	// Farm rows: prob on arrays arrays.
	arrays        int
	prob          func() warp.Problem
	tiles         int
	agg, makespan int64
}{
	{name: "compile/1d-conv", src: workloads.Conv1DPaper, pipe: true, lines: 31, cells: 9, skew: 12, cell: 43, iu: 47},
	{name: "compile/binop", src: workloads.BinopPaper, pipe: true, lines: 20, cells: 1, cell: 32, iu: 32},
	{name: "compile/colorseg", src: workloads.ColorSegPaper, pipe: true, lines: 55, cells: 10, skew: 37, cell: 124, iu: 124},
	{name: "compile/mandelbrot", src: workloads.MandelbrotPaper, pipe: true, lines: 31, cells: 1, cell: 96, iu: 96},
	{name: "compile/polynomial", src: workloads.PolynomialPaper, pipe: true, lines: 27, cells: 10, skew: 11, cell: 41, iu: 43},

	{name: "run/polynomial-plain", src: polynomial(100), lines: 27, cells: 10, skew: 11, cell: 18, iu: 22, cycles: 1322},
	{name: "run/polynomial-pipelined", src: polynomial(100), pipe: true, lines: 27, cells: 10, skew: 11, cell: 41, iu: 43, cycles: 225},
	{name: "run/conv1d-pipelined", src: conv1d(512), pipe: true, lines: 31, cells: 9, skew: 12, cell: 43, iu: 47, cycles: 634},
	{name: "run/matmul10-pipelined", src: matmul(10), pipe: true, lines: 44, cells: 10, skew: 14, cell: 63, iu: 82, cycles: 719},
	{name: "run/polynomial-large-pipelined", src: polynomial(400), pipe: true, lines: 27, cells: 10, skew: 11, cell: 41, iu: 43, cycles: 525},
	{name: "run/conv1d-large-pipelined", src: conv1d(2048), pipe: true, lines: 31, cells: 9, skew: 12, cell: 46, iu: 50, cycles: 2170},
	// List-scheduled on purpose: the backend comparison's program.
	{name: "fastexec/matmul32", src: matmul(32), lines: 44, cells: 32, skew: 68, cell: 32, iu: 52, cycles: 18783},

	{name: "fabric/matmul40-arrays1", src: matmul(10), pipe: true, lines: 44, cells: 10, skew: 14, cell: 63, iu: 82,
		arrays: 1, prob: matmul40, tiles: 64, agg: 46016, makespan: 46016},
	{name: "fabric/matmul40-arrays2", src: matmul(10), pipe: true, lines: 44, cells: 10, skew: 14, cell: 63, iu: 82,
		arrays: 2, prob: matmul40, tiles: 64, agg: 46016, makespan: 23008},
	{name: "fabric/matmul40-arrays4", src: matmul(10), pipe: true, lines: 44, cells: 10, skew: 14, cell: 63, iu: 82,
		arrays: 4, prob: matmul40, tiles: 64, agg: 46016, makespan: 11504},
	{name: "fabric/conv2048-arrays4", src: conv1d(512), pipe: true, lines: 31, cells: 9, skew: 12, cell: 43, iu: 47,
		arrays: 4, prob: conv2048, tiles: 5, agg: 3170, makespan: 1268},
}

func polynomial(points int) func() string {
	return func() string { return workloads.Polynomial(10, points) }
}
func conv1d(points int) func() string { return func() string { return workloads.Conv1D(9, points) } }
func matmul(n int) func() string      { return func() string { return workloads.Matmul(n) } }

func matmul40() warp.Problem {
	a, b := workloads.LargeMatmulData(40, 40, 40, 5)
	return warp.MatmulProblem(40, 40, 40, a, b)
}

func conv2048() warp.Problem {
	x, w := workloads.LargeConv1DData(2048, 9, 5)
	return warp.Conv1DProblem(w, x)
}

// TestPinnedBaselines compiles every row verified and holds its µcode
// sizes, skew and — where the row runs — its cycle counts to the table,
// on the cycle-accurate simulator and on the fast executor alike: equal
// cycles, bit-identical outputs, and the farms batching their tiles on
// both backends without one batch falling back to the per-tile path.
func TestPinnedBaselines(t *testing.T) {
	for _, p := range pinnedBaselines {
		t.Run(p.name, func(t *testing.T) {
			prog, err := warp.Compile(p.src(), warp.Options{Pipeline: p.pipe})
			if err != nil {
				t.Fatal(err)
			}
			m := prog.Metrics()
			if m.W2Lines != p.lines || m.Cells != p.cells || m.Skew != p.skew || m.CellInstrs != p.cell || m.IUInstrs != p.iu {
				t.Errorf("%d W2 lines, %d cells, skew %d, cell µcode %d, IU µcode %d; pinned %d, %d, %d, %d, %d",
					m.W2Lines, m.Cells, m.Skew, m.CellInstrs, m.IUInstrs, p.lines, p.cells, p.skew, p.cell, p.iu)
			}
			if p.cycles == 0 && p.prob == nil {
				return
			}
			var simOut map[string][]float64
			for _, backend := range []string{warp.BackendSim, warp.BackendFast} {
				var out map[string][]float64
				if p.prob == nil {
					var rs *warp.RunStats
					if out, rs, err = prog.RunWith(warp.RunConfig{Backend: backend}, variedInputs(prog)); err != nil {
						t.Fatalf("%s: %v", backend, err)
					}
					if rs.Cycles != p.cycles || rs.Backend != backend {
						t.Errorf("%s: %d cycles on the %s backend, pinned %d", backend, rs.Cycles, rs.Backend, p.cycles)
					}
				} else {
					var fs *warp.FabricStats
					if out, fs, err = prog.RunPartitioned(warp.RunConfig{Arrays: p.arrays, Backend: backend}, p.prob()); err != nil {
						t.Fatalf("%s: %v", backend, err)
					}
					if fs.Tiles != p.tiles || fs.AggregateCycles != p.agg || fs.MakespanCycles != p.makespan || fs.Backend != backend {
						t.Errorf("%s: %d tiles, aggregate %d, makespan %d on the %s backend; pinned %d, %d, %d",
							backend, fs.Tiles, fs.AggregateCycles, fs.MakespanCycles, fs.Backend, p.tiles, p.agg, p.makespan)
					}
					if fs.Batches == 0 || fs.BatchFallbacks != 0 {
						t.Errorf("%s: %d batches, %d fell back to tile-by-tile", backend, fs.Batches, fs.BatchFallbacks)
					}
				}
				if simOut == nil {
					simOut = out
					continue
				}
				for name, want := range simOut {
					got := out[name]
					if len(got) != len(want) {
						t.Fatalf("%s: sim %d words, fast %d", name, len(want), len(got))
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s[%d]: sim %v, fast %v (not bit-identical)", name, i, want[i], got[i])
						}
					}
				}
			}
		})
	}
}

// variedInputs fills every input array with a deterministic non-zero
// pattern, so the backends are compared on real arithmetic bit patterns.
// (Timing is input-independent: the machine is statically scheduled.)
func variedInputs(prog *warp.Program) map[string][]float64 {
	in := map[string][]float64{}
	for _, p := range prog.Params() {
		if p.Out {
			continue
		}
		v := make([]float64, p.Size)
		for i := range v {
			v[i] = float64(i%17)/8 - 1
		}
		in[p.Name] = v
	}
	return in
}
