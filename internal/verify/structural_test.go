package verify_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"warp/internal/driver"
	"warp/internal/sim"
	"warp/internal/verify"
	"warp/internal/workloads"
)

// The structural queue proofs against the enumeration they replaced, on
// compiled programs.  (The hand-built tree quick-check is in
// tree_test.go; this file needs the compiler, hence the external
// package.)

func verifyProgram(c *driver.Compiled) sim.Config {
	return sim.Config{Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host, Skew: c.Skew, Lead: c.IUGen.Prologue + 1}
}

func testdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// differentialAtSkews compares both provers at the compiled skew and at
// skews around and far from it (the queue between cells), and at the
// same spread of leads (the queues out of the IU).
func differentialAtSkews(t *testing.T, name string, c *driver.Compiled) {
	t.Helper()
	p := verifyProgram(c)
	for _, skew := range []int64{c.Skew, c.Skew - 1, c.Skew / 2, c.Skew * 3, 0, 1, 1000} {
		if skew < 0 {
			continue
		}
		q := p
		q.Skew = skew
		q.Lead = max(1, p.Lead+skew-c.Skew)
		if err := verify.Differential(q); err != nil {
			t.Fatalf("%s at skew %d, lead %d: %v", name, q.Skew, q.Lead, err)
		}
	}
}

// compileCorpus compiles every benchmark and testdata program and the
// 540 (random program, option set) pairs of
// driver.TestVerifierSoundnessSweep, handing each to f.
func compileCorpus(t *testing.T, f func(name string, c *driver.Compiled)) {
	for _, tc := range []struct {
		name, src string
		pipeline  bool
	}{
		{"testdata/polynomial", testdata(t, "polynomial.w2"), true},
		{"testdata/matmul8", testdata(t, "matmul8.w2"), false},
		{"polynomial", workloads.Polynomial(10, 100), true},
		{"conv1d", workloads.Conv1D(9, 2048), true},
		{"binop", workloads.Binop(64, 64), true},
		{"colorseg", workloads.ColorSeg(64, 64, 10), true},
		{"mandelbrot", workloads.Mandelbrot(32*32, 4), true},
		{"fft1024", workloads.FFT(1024), true},
		{"matmul32", workloads.Matmul(32), true},
		{"matmul32-plain", workloads.Matmul(32), false},
	} {
		c, err := driver.Compile(tc.src, driver.Options{Pipeline: tc.pipeline})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f(tc.name, c)
	}

	rng := rand.New(rand.NewSource(99)) // TestVerifierSoundnessSweep's programs
	for i := 0; i < 180; i++ {
		src, _ := workloads.RandomProgram(rng)
		for _, opts := range []driver.Options{{}, {NoOptimize: true}, {Pipeline: true}} {
			c, err := driver.Compile(src, opts)
			if err != nil {
				t.Fatalf("program %d: compile (%+v): %v", i, opts, err)
			}
			f(src, c)
		}
	}
}

// TestStructuralSweepMatchesEnumeration: over the corpus, the structural
// peak, low-water mark and verdict of every queue equal the enumerated
// ones, and the IU proofs — each Out field's extremes, the table reads,
// the first over-read, both signal normal forms — equal what
// mcode.IUCode.Elaborate's trace says, event for event.
func TestStructuralSweepMatchesEnumeration(t *testing.T) {
	compileCorpus(t, func(name string, c *driver.Compiled) { differentialAtSkews(t, name, c) })
}

// TestIUProofsDecideCorpus: on every program of the corpus the IU's
// value proofs decide structurally — the diagnostic renderer never runs —
// the proof that each address is the one its memory field names
// included.
func TestIUProofsDecideCorpus(t *testing.T) {
	compileCorpus(t, func(name string, c *driver.Compiled) {
		rep, err := verify.Verify(sim.Load(verifyProgram(c)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Rendered != 0 {
			t.Errorf("%s: %d IU streams enumerated on an accepted program", name, rep.Rendered)
		}
		if !verify.AddrValuesDecided(verifyProgram(c)) {
			t.Errorf("%s: the address proof does not decide structurally", name)
		}
	})
}

// TestVerifyCostIndependentOfTrips: a larger image or a longer signal is
// the same loop tree with larger trip counts, so its queue proofs look at
// the same number of pushes, its IU proofs — the address proof's cursor
// moves among them — take the same steps, and the verifier's allocation
// count moves by no more than a constant.  The pipelined kernels make no
// memory reference; plain matmul makes 272 at 16² and 4 160 at 64², and
// its skew grows with the matrix, so its queue proofs' evaluations do
// too.
func TestVerifyCostIndependentOfTrips(t *testing.T) {
	for _, tc := range []struct {
		name         string
		small, large string
		plain        bool // compiled plain, its skew growing with the size
	}{
		{"colorseg", workloads.ColorSeg(64, 64, 10), workloads.ColorSeg(512, 512, 10), false},
		// The pipelined kernel is unrolled seven times; 65 538 leaves the
		// remainder 256 does, hence the same tree.
		{"conv1d", workloads.Conv1D(9, 256), workloads.Conv1D(9, 256+7*9326), false},
		{"binop", workloads.Binop(64, 64), workloads.Binop(512, 512), false},
		{"matmul", workloads.Matmul(16), workloads.Matmul(64), true},
	} {
		var evals, steps [2]int64
		var allocs [2]float64
		for i, src := range []string{tc.small, tc.large} {
			c, err := driver.Compile(src, driver.Options{Pipeline: !tc.plain})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			l := sim.Load(verifyProgram(c))
			rep, err := verify.Verify(l)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			evals[i], steps[i] = rep.Evals, rep.Steps
			allocs[i] = testing.AllocsPerRun(3, func() { verify.Verify(l) })
		}
		t.Logf("%s: %d/%d point evaluations, %d/%d IU proof steps, %.0f/%.0f allocations", tc.name, evals[0], evals[1], steps[0], steps[1], allocs[0], allocs[1])
		if !tc.plain && evals[0] != evals[1] || evals[0] == 0 {
			t.Errorf("%s: %d point evaluations at the small size, %d at the large", tc.name, evals[0], evals[1])
		}
		if steps[0] != steps[1] || steps[0] == 0 {
			t.Errorf("%s: %d IU proof steps at the small size, %d at the large", tc.name, steps[0], steps[1])
		}
		if d := allocs[1] - allocs[0]; d > 16 || d < -16 {
			t.Errorf("%s: %.0f allocations at the small size, %.0f at the large", tc.name, allocs[0], allocs[1])
		}
	}
}
