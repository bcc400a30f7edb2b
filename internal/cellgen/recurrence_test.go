package cellgen

import (
	"math/rand"
	"testing"

	"warp/internal/ir"
	"warp/internal/opt"
	"warp/internal/prof"
	"warp/internal/w2"
	"warp/internal/workloads"
)

// TestRecurrenceBoundSkipsOnlyInfeasibleIIs: the II search starts at the
// recurrence bound instead of resMII.  That changes nothing but the
// attempt counters only if every II it no longer tries was one tryModulo
// fails at — checked here on every pipelinable loop of the benchmark
// programs and of 200 random ones — and tryModulo is a pure function of
// (block, edges, II), so the first II it accepts is the one the search
// from resMII accepted.
func TestRecurrenceBoundSkipsOnlyInfeasibleIIs(t *testing.T) {
	srcs := []string{
		workloads.Polynomial(10, 100), workloads.Conv1D(9, 2048), workloads.Binop(512, 512),
		workloads.ColorSeg(512, 512, 10), workloads.Mandelbrot(32*32, 4), workloads.FFT(1024), workloads.Matmul(32),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		src, _ := workloads.RandomProgram(rng)
		srcs = append(srcs, src)
	}
	loops, skipped, raised := 0, 0, 0
	for _, src := range srcs {
		m, err := w2.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := w2.Analyze(m)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Build(info)
		if err != nil {
			t.Fatal(err)
		}
		opt.Optimize(p)
		var visit func(regions []ir.Region)
		visit = func(regions []ir.Region) {
			for _, r := range regions {
				l, ok := r.(*ir.LoopRegion)
				if !ok {
					continue
				}
				visit(l.Body)
				if len(l.Body) != 1 {
					continue
				}
				br, ok := l.Body[0].(*ir.BlockRegion)
				if !ok {
					continue
				}
				b := br.Block
				base, err := listSchedule(b)
				if err != nil {
					t.Fatal(err)
				}
				edges, ok := buildModuloEdges(b, l.Loop)
				if !ok {
					continue
				}
				loops++
				res := resMII(b)
				mii := recurrenceBound(b, edges, res, base.len)
				if mii > res {
					raised++
				}
				for ii := res; ii < mii; ii++ {
					skipped++
					if _, ok := tryModulo(b, edges, ii, &prof.LoopSched{}); ok {
						t.Errorf("loop %s (line %d): tryModulo schedules II %d, below the recurrence bound %d (resMII %d)\n%s",
							l.Loop.Var, l.Loop.Pos.Line, ii, mii, res, src)
					}
				}
			}
		}
		for _, fn := range p.Funcs {
			visit(fn.Regions)
		}
	}
	t.Logf("%d loops, the bound above resMII on %d of them, %d IIs skipped", loops, raised, skipped)
	if raised == 0 || skipped < 29 {
		t.Errorf("the recurrence bound never bites (%d loops raised, %d IIs skipped); mandelbrot alone skips 29", raised, skipped)
	}
}
