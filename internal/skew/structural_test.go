package skew_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"warp/internal/cellgen"
	"warp/internal/driver"
	"warp/internal/mcode"
	"warp/internal/sim"
	"warp/internal/skew"
	"warp/internal/verify"
	"warp/internal/w2"
	"warp/internal/workloads"
)

// The structural skew search against the enumeration it replaced.  The
// compiled programs need the compiler, hence the external package.

// compare holds one channel pair's Analysis to the enumerating oracle:
// the minimum skew, and at skews around and far from it the occupancy
// and the underflow and overflow verdicts.
func compare(t *testing.T, name string, out, in *skew.Prog) {
	t.Helper()
	exact, errExact := skew.MinSkewExact(out, in)
	a, err := skew.NewAnalysis(out, in)
	if (err != nil) != (errExact != nil) {
		t.Fatalf("%s: NewAnalysis error %v, MinSkewExact error %v", name, err, errExact)
	}
	if err != nil {
		return
	}
	s, st, err := a.MinSkewStats()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if s != max(exact, 0) || st.Method != "structural" {
		t.Fatalf("%s: structural skew %d (%s), enumerated %d", name, s, st.Method, exact)
	}
	for _, d := range []int64{s, s - 1, s + 1, s / 2, 2*s + 3, 0, 1000} {
		if d < 0 {
			continue
		}
		want, errWant := skew.MaxOccupancy(out, in, d)
		got, errGot := a.CheckQueue(d, mcode.QueueDepth)
		switch {
		case errWant != nil: // underflow
			if errGot == nil || !strings.Contains(errGot.Error(), "underflow") {
				t.Fatalf("%s at skew %d: enumeration says %v, CheckQueue %v", name, d, errWant, errGot)
			}
		case got != want:
			t.Fatalf("%s at skew %d: structural occupancy %d, enumerated %d", name, d, got, want)
		case (errGot != nil) != (want > mcode.QueueDepth):
			t.Fatalf("%s at skew %d: occupancy %d, CheckQueue error %v", name, d, want, errGot)
		}
	}
}

type compiled struct {
	name, src string
	pipeline  bool
}

// p8 is the benchmark's eight programs (colorseg and binop at the sizes
// an enumeration can afford) and the two testdata programs.
func p8(t *testing.T) []compiled {
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return []compiled{
		{"testdata/polynomial", read("polynomial.w2"), true},
		{"testdata/matmul8", read("matmul8.w2"), false},
		{"polynomial", workloads.Polynomial(10, 100), true},
		{"conv1d", workloads.Conv1D(9, 2048), true},
		{"binop", workloads.Binop(64, 64), true},
		{"colorseg", workloads.ColorSeg(64, 64, 10), true},
		{"mandelbrot", workloads.Mandelbrot(32*32, 4), true},
		{"fft1024", workloads.FFT(1024), true},
		{"matmul32", workloads.Matmul(32), true},
		{"matmul32-plain", workloads.Matmul(32), false},
	}
}

func TestStructuralSkewMatchesEnumeration(t *testing.T) {
	for _, tc := range p8(t) {
		for _, pipeline := range []bool{false, true} {
			if pipeline && !tc.pipeline {
				continue
			}
			c, err := driver.Compile(tc.src, driver.Options{Pipeline: pipeline})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for ch, p := range cellgen.Timing(c.Cell) {
				compare(t, tc.name+" "+ch.String(), p, p)
			}
		}
	}
	compare(t, "Fig 6-2", skew.Fig62(), skew.Fig62())
	compare(t, "Fig 6-4", skew.Fig64(), skew.Fig64())

	// Random programs against themselves and against one another: two
	// different programs share no loop structure, so these also cover the
	// walk where it cannot skip.
	rng := rand.New(rand.NewSource(5))
	pairs := 0
	for i := 0; i < 4000; i++ {
		out := skew.RandProg(rng, true)
		compare(t, "random program", out, out)
		in := skew.RandProg(rng, true)
		if out.Count(skew.Output) == in.Count(skew.Input) {
			pairs++
		}
		compare(t, "random pair", out, in)
	}
	if pairs < 100 {
		t.Errorf("only %d random pairs had matching counts; the generator is too weak", pairs)
	}
}

// TestSkewCostIndependentOfTrips: a larger image is the same loop tree
// with larger trip counts, so the search evaluates the same points — and
// an image past what the enumeration could afford compiles to the same
// skew and verifies.
func TestSkewCostIndependentOfTrips(t *testing.T) {
	type result struct {
		skew int64
		ops  map[string]int64
	}
	var res []result
	for _, side := range []int{64, 512, 1024} {
		c, err := driver.Compile(workloads.ColorSeg(side, side, 10), driver.Options{Pipeline: true})
		if err != nil {
			t.Fatalf("colorseg %d²: %v", side, err)
		}
		r := result{c.Skew, map[string]int64{}}
		for _, k := range c.Sched.Skews {
			r.ops[k.Channel] = k.Ops
		}
		res = append(res, r)
	}
	t.Logf("colorseg 64²/512²/1024²: %+v", res)
	for _, r := range res[1:] {
		if r.skew != res[0].skew || len(r.ops) != 2 || r.ops["X"] != res[0].ops["X"] || r.ops["Y"] != res[0].ops["Y"] || r.ops["X"] == 0 {
			t.Errorf("skew %d with %v point evaluations, at 64² skew %d with %v", r.skew, r.ops, res[0].skew, res[0].ops)
		}
	}
}

// TestSkewBudget: receives that repeat with twice the period of the
// sends share no stretch with them, so the walk degenerates to the plain
// sweep, runs into the work budget, and the analysis fails — it neither
// hangs nor guesses.
func TestSkewBudget(t *testing.T) {
	n := int64(skew.EvalBudget)
	out := skew.Build(skew.Rep(2*n, skew.Out()))
	in := skew.Build(skew.Rep(n, skew.In(), skew.In()))
	a, err := skew.NewAnalysis(out, in)
	if err != nil {
		t.Fatal(err)
	}
	if s, st, err := a.MinSkewStats(); err == nil || !strings.Contains(err.Error(), "budget") || st.Ops <= n {
		t.Errorf("MinSkewStats = %d, %+v, %v; want a budget error after more than %d evaluations", s, st, err, n)
	}
	// Against itself the same stream is one stretch.
	a, err = skew.NewAnalysis(out, skew.Build(skew.Rep(2*n, skew.In())))
	if err != nil {
		t.Fatal(err)
	}
	if s, st, err := a.MinSkewStats(); err != nil || s != 0 || st.Ops > 8 {
		t.Errorf("self queue: skew %d after %d evaluations (%v), want 0 in a handful", s, st.Ops, err)
	}
}

// TestVerifyWalkFollowsTree: FFT's bit-reversal recursion is a nest of
// 2-trip loops one level deeper per doubling of the points, and the IU's
// lead has the first iteration of every level look back before its loop,
// so without reuse every level walks both iterations and the verifier's
// walk doubles with every level.  Walks of a repeated context are reused,
// so FFT(1024)'s queue proofs walk at most twice FFT(64)'s pushes.
func TestVerifyWalkFollowsTree(t *testing.T) {
	walks := map[int]int64{}
	for _, points := range []int{64, 256, 1024} {
		c, err := driver.Compile(workloads.FFT(points), driver.Options{Pipeline: true})
		if err != nil {
			t.Fatal(err)
		}
		var walked int64
		stop := skew.CountWalked(func(n int64) { walked += n })
		rep, err := verify.Verify(sim.Load(sim.Config{Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host, Skew: c.Skew, Lead: c.IUGen.Prologue + 1}))
		stop()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("FFT(%d): %d pushes walked for %d evaluations", points, walked, rep.Evals)
		walks[points] = walked
	}
	if walks[1024] > 2*walks[64] {
		t.Errorf("FFT(1024) walks %d pushes, FFT(64) %d: want at most twice", walks[1024], walks[64])
	}
}

// TestZeroTripLoopRefused: the sequencer runs a loop of no trips once,
// but Seal counts its body no times, so the search refuses it rather
// than read a wrong count.
func TestZeroTripLoopRefused(t *testing.T) {
	p := skew.Build(skew.In(), skew.Rep(0, skew.Out(), skew.In()), skew.Out())
	if _, err := skew.NewAnalysis(p, p); err == nil || !strings.Contains(err.Error(), "0 trips") {
		t.Errorf("NewAnalysis of a zero-trip loop: %v, want a refusal", err)
	}
}

// TestSharedProgConcurrentReads: one cellgen.Timing result of colorseg,
// as a cached program hands it to every request, read by eight goroutines at once
// gives each the sequential read — skew, search statistics, occupancy,
// times and statements.  Under -race it also shows that nothing writes to
// a Prog once it is built.
func TestSharedProgConcurrentReads(t *testing.T) {
	c, err := driver.Compile(workloads.ColorSeg(64, 64, 10), driver.Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	timing := cellgen.Timing(c.Cell)
	for ch, p := range timing {
		if p.Count(skew.Input) == 0 {
			continue
		}
		if _, err := skew.NewAnalysis(p, p); err != nil {
			t.Fatalf("%s: %v", ch, err)
		}
	}
	read := func() string {
		var sb strings.Builder
		for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
			p := timing[ch]
			a, err := skew.NewAnalysis(p, p)
			if err != nil {
				fmt.Fprintf(&sb, "%s: %v\n", ch, err)
				continue
			}
			s, st, err := a.MinSkewStats()
			occ, qerr := a.CheckQueue(s, mcode.QueueDepth)
			fmt.Fprintf(&sb, "%s: skew %d %+v %v, occupancy %d %v\n", ch, s, st, err, occ, qerr)
			for _, k := range []skew.Kind{skew.Input, skew.Output} {
				fmt.Fprintln(&sb, p.Times(k))
				for _, v := range skew.Statements(p, k) {
					fmt.Fprintln(&sb, v)
				}
			}
		}
		return sb.String()
	}
	want := read()
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = read()
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != want {
			t.Errorf("goroutine %d's read differs from the sequential read", i)
		}
	}
}
