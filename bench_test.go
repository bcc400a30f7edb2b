package warp_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations of the design choices DESIGN.md calls out.
// Run with:
//
//	go test -bench=. -benchmem
//
// Shape expectations (absolute numbers depend on this machine, not the
// 1986 Perq/Warp):
//
//   - Fig 3-1: skewed latency 1 vs SIMD latency 4;
//   - Tables 6-1..6-4: minimum skews 3 and 18; the pairwise bound is
//     asymptotically cheaper than exact enumeration as trip counts grow
//     (BenchmarkAblationSkewMethods);
//   - Table 6-5: allocations (3,6,2), (4,2,2), (5,1,3);
//   - Table 7-1: compile times in milliseconds (the paper: minutes),
//     with the same relative ordering of program complexity;
//   - throughput: software pipelining reaches ~1 cycle/result steady
//     state where list scheduling needs ~11-12.

import (
	"fmt"
	"runtime"
	"testing"

	"warp"
	"warp/internal/paper"
	"warp/internal/skew"
	"warp/internal/workloads"
)

// ---------------------------------------------------------------------
// Figure 3-1: SIMD vs skewed computation model.

func BenchmarkFig3_1_ModelLatency(b *testing.B) {
	deps := []paper.StageDep{{Producer: 3, Consumer: 3}}
	var simd, skewed int64
	for i := 0; i < b.N; i++ {
		simd = paper.SIMDLatency(4, deps)
		skewed = paper.SkewedLatency(4, deps)
	}
	b.ReportMetric(float64(simd), "simd-latency")
	b.ReportMetric(float64(skewed), "skewed-latency")
}

// ---------------------------------------------------------------------
// Tables 6-1 and 6-2: exact minimum skew of the worked examples.

func BenchmarkTable6_1_MinSkewExact(b *testing.B) {
	p := paper.Fig62()
	var s int64
	for i := 0; i < b.N; i++ {
		var err error
		s, err = paper.MinSkewExact(p, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s), "min-skew")
}

func BenchmarkTable6_2_MinSkewExact(b *testing.B) {
	p := paper.Fig64()
	var s int64
	for i := 0; i < b.N; i++ {
		var err error
		s, err = paper.MinSkewExact(p, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s), "min-skew")
}

// ---------------------------------------------------------------------
// Table 6-3: characteristic-vector extraction.

func BenchmarkTable6_3_Vectors(b *testing.B) {
	p := paper.Fig64()
	for i := 0; i < b.N; i++ {
		if got := len(paper.Statements(p, skew.Output)); got != 5 {
			b.Fatalf("got %d output statements", got)
		}
	}
}

// ---------------------------------------------------------------------
// Table 6-4: the closed-form pairwise bound.

func BenchmarkTable6_4_MinSkewBound(b *testing.B) {
	p := paper.Fig64()
	var bound paper.Rat
	for i := 0; i < b.N; i++ {
		var err error
		bound, _, err = paper.MinSkewBound(p, p, paper.BoundPaper)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bound.Float(), "bound")
}

// ---------------------------------------------------------------------
// Table 6-5: IU operand selection.

func BenchmarkTable6_5_Allocations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := paper.Table65()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// ---------------------------------------------------------------------
// Table 7-1: full compilation of the five sample programs at the
// paper's sizes.  ns/op is this reproduction's "compile time" column.

func benchCompile(b *testing.B, src string) {
	b.Helper()
	var m warp.Metrics
	for i := 0; i < b.N; i++ {
		prog, err := warp.Compile(src, warp.Options{Pipeline: true})
		if err != nil {
			b.Fatal(err)
		}
		m = prog.Metrics()
	}
	b.ReportMetric(float64(m.CellInstrs), "cell-ucode")
	b.ReportMetric(float64(m.IUInstrs), "iu-ucode")
}

func BenchmarkTable7_1_Compile_Conv1D(b *testing.B)     { benchCompile(b, workloads.Conv1DPaper()) }
func BenchmarkTable7_1_Compile_Binop(b *testing.B)      { benchCompile(b, workloads.BinopPaper()) }
func BenchmarkTable7_1_Compile_ColorSeg(b *testing.B)   { benchCompile(b, workloads.ColorSegPaper()) }
func BenchmarkTable7_1_Compile_Mandelbrot(b *testing.B) { benchCompile(b, workloads.MandelbrotPaper()) }
func BenchmarkTable7_1_Compile_Polynomial(b *testing.B) { benchCompile(b, workloads.PolynomialPaper()) }

// ---------------------------------------------------------------------
// §2/§7 throughput: simulated machine cycles per result.

func benchSim(b *testing.B, src string, inputs map[string][]float64, results int64, pipeline bool) {
	b.Helper()
	prog, err := warp.Compile(src, warp.Options{Pipeline: pipeline})
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := prog.Run(inputs)
		if err != nil {
			b.Fatal(err)
		}
		cycles = stats.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(results), "cycles/result")
}

func BenchmarkSimThroughput_Polynomial_Plain(b *testing.B) {
	benchSim(b, workloads.Polynomial(10, 100),
		map[string][]float64{"z": make([]float64, 100), "c": make([]float64, 10)}, 100, false)
}

func BenchmarkSimThroughput_Polynomial_Pipelined(b *testing.B) {
	benchSim(b, workloads.Polynomial(10, 100),
		map[string][]float64{"z": make([]float64, 100), "c": make([]float64, 10)}, 100, true)
}

func BenchmarkSimThroughput_Conv1D_Plain(b *testing.B) {
	benchSim(b, workloads.Conv1D(9, 512),
		map[string][]float64{"x": make([]float64, 512), "w": make([]float64, 9)}, 511, false)
}

func BenchmarkSimThroughput_Conv1D_Pipelined(b *testing.B) {
	benchSim(b, workloads.Conv1D(9, 512),
		map[string][]float64{"x": make([]float64, 512), "w": make([]float64, 9)}, 511, true)
}

func BenchmarkSimThroughput_Matmul(b *testing.B) {
	benchSim(b, workloads.Matmul(10),
		map[string][]float64{"a": make([]float64, 100), "bmat": make([]float64, 100)}, 100, true)
}

// ---------------------------------------------------------------------
// Ablation: exact enumeration vs the paper's closed-form bound as trip
// counts grow.  The bound's cost is independent of the iteration count,
// which is the point of §6.2.1's formulation.

func scaledFig64(scale int64) *skew.Prog {
	return paper.Build(
		paper.Nop(),
		paper.Rep(5*scale, paper.In(), paper.In(), paper.Nop()),
		paper.Nop(), paper.Nop(),
		paper.Rep(2*scale, paper.Out(), paper.Out()),
		paper.Nop(), paper.Nop(),
		paper.Rep(2*scale, paper.Out(), paper.Out(), paper.Out(), paper.Nop(), paper.Nop()),
		paper.Nop(),
		// Pad the stream: input and output counts must match.
		paper.Rep(6*scale, paper.In(), paper.Out()),
	)
}

func BenchmarkAblationSkewMethods(b *testing.B) {
	for _, scale := range []int64{1, 100, 10000} {
		p := scaledFig64(scale)
		b.Run(fmt.Sprintf("exact/scale=%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := paper.MinSkewExact(p, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bound/scale=%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := paper.MinSkewBound(p, p, paper.BoundPaper); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: local optimizer on/off over a redundancy-heavy kernel
// (shared subexpressions, identities, a long associative chain): the
// optimized build must produce a shorter cell program.

const redundantSrc = `
module red (xs in, ys out)
float xs[128];
float ys[64];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float a, b, r;
        int i;
        for i := 0 to 63 do begin
            receive (L, X, a, xs[2*i]);
            receive (L, Y, b, xs[2*i+1]);
            r := (a + b) * (a + b) + (b + a) * 1.0
               + ((a + b) + (a + b) + (a + b) + (a + b)
               +  (a + b) + (a + b) + (a + b) + (a + b)) - 0.0;
            send (R, X, r + (2.0 + 3.0) * 4.0, ys[i]);
        end;
    end
    call f;
end
`

func BenchmarkAblationOptimizer(b *testing.B) {
	src := redundantSrc
	for _, noopt := range []bool{false, true} {
		name := "opt"
		if noopt {
			name = "noopt"
		}
		b.Run(name, func(b *testing.B) {
			var m warp.Metrics
			for i := 0; i < b.N; i++ {
				prog, err := warp.Compile(src, warp.Options{NoOptimize: noopt})
				if err != nil {
					b.Fatal(err)
				}
				m = prog.Metrics()
			}
			b.ReportMetric(float64(m.CellInstrs), "cell-ucode")
			b.ReportMetric(float64(m.CellCycles), "cell-cycles")
		})
	}
}

// Ablation: the cost of the cycle-accurate simulation itself, per
// simulated machine cycle.

func BenchmarkSimulatorSpeed(b *testing.B) {
	src := workloads.Binop(64, 64)
	prog, err := warp.Compile(src, warp.Options{Pipeline: true})
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string][]float64{
		"a": make([]float64, 64*64),
		"b": make([]float64, 64*64),
	}
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := prog.Run(inputs)
		if err != nil {
			b.Fatal(err)
		}
		cycles += stats.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.Elapsed().Nanoseconds())*1e9, "machine-cycles/s")
}

// §2's FFT headline: compile and simulate the 1024-point transform.

func BenchmarkFFT1024_Compile(b *testing.B) {
	benchCompile(b, workloads.FFTPaper())
}

func BenchmarkFFT1024_Simulate(b *testing.B) {
	const n = 1024
	prog, err := warp.Compile(workloads.FFT(n), warp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string][]float64{
		"twid": workloads.FFTTwiddles(n),
		"x":    make([]float64, 2*n),
	}
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := prog.Run(inputs)
		if err != nil {
			b.Fatal(err)
		}
		cycles = stats.Cycles
	}
	b.ReportMetric(float64(cycles), "machine-cycles")
}

// ---------------------------------------------------------------------
// The fabric's simulator job: a 40×40×40 matmul in 64 tiles of the
// ten-cell matmul kernel on two arrays, first attempts batched (one walk
// of the simulated machine per batch) against every tile on its own.

func BenchmarkRunPartitionedSim(b *testing.B) {
	prog, err := warp.Compile(workloads.Matmul(10), warp.Options{Pipeline: true})
	if err != nil {
		b.Fatal(err)
	}
	x, y := workloads.LargeMatmulData(40, 40, 40, 3)
	prob := warp.MatmulProblem(40, 40, 40, x, y)
	cfg := warp.RunConfig{Arrays: 2, Backend: warp.BackendSim}
	for _, path := range []struct {
		name string
		run  func(warp.RunConfig, warp.Problem) (map[string][]float64, *warp.FabricStats, error)
	}{{"batched", prog.RunPartitioned}, {"per-tile", prog.RunPartitionedPerTile}} {
		b.Run(path.name, func(b *testing.B) {
			var tiles int
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				_, stats, err := path.run(cfg, prob)
				if err != nil {
					b.Fatal(err)
				}
				tiles = stats.Tiles
			}
			runtime.ReadMemStats(&after)
			per := float64(b.N * tiles)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per/1e3, "µs/tile")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/tile")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per/1024, "KB/tile")
		})
	}
}
