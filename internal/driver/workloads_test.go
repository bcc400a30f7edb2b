package driver

import (
	"math/rand"
	"testing"

	"warp/internal/workloads"
)

// These tests compile every sample workload at a test-friendly size,
// run it on the simulated Warp machine, and check the outputs against
// both the W2 reference interpreter and a direct Go computation of the
// algorithm.

func checkAgainst(t *testing.T, got, want []float64, label string, n int) {
	t.Helper()
	if len(got) < n {
		t.Fatalf("%s: got %d values, want at least %d", label, len(got), n)
	}
	for i := 0; i < n; i++ {
		if !approxEqual(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestConv1DEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k, n := 9, 64
	x := randArray(rng, n)
	w := randArray(rng, k)
	inputs := map[string][]float64{"x": x, "w": w}
	c := compareRun(t, workloads.Conv1D(k, n), Options{}, inputs)
	got, _, err := RunWith(c, inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := workloads.Conv1DRef(x, w)
	checkAgainst(t, got["results"], ref, "conv1d results", len(ref))
	if c.Cells != k {
		t.Errorf("cells = %d, want %d", c.Cells, k)
	}
}

func TestBinopEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w, h := 16, 12
	a := randArray(rng, w*h)
	b := randArray(rng, w*h)
	inputs := map[string][]float64{"a": a, "b": b}
	c := compareRun(t, workloads.Binop(w, h), Options{}, inputs)
	got, _, err := RunWith(c, inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, got["res"], workloads.BinopRef(a, b), "binop out", w*h)
}

func TestColorSegEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w, h, ncells := 8, 8, 10
	refs := make([]float64, 4*ncells)
	for c := 0; c < ncells; c++ {
		refs[4*c] = rng.Float64() * 10
		refs[4*c+1] = rng.Float64() * 10
		refs[4*c+2] = rng.Float64() * 10
		refs[4*c+3] = float64(c)
	}
	image := make([]float64, 3*w*h)
	for i := range image {
		image[i] = rng.Float64() * 10
	}
	inputs := map[string][]float64{"refs": refs, "image": image}
	c := compareRun(t, workloads.ColorSeg(w, h, ncells), Options{}, inputs)
	got, _, err := RunWith(c, inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, got["classes"], workloads.ColorSegRef(refs, image), "classes", w*h)
}

func TestMandelbrotEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n, iters := 64, 4
	cxs := make([]float64, n)
	cys := make([]float64, n)
	for i := range cxs {
		cxs[i] = rng.Float64()*3 - 2
		cys[i] = rng.Float64()*3 - 1.5
	}
	inputs := map[string][]float64{"cxs": cxs, "cys": cys}
	c := compareRun(t, workloads.Mandelbrot(n, iters), Options{}, inputs)
	got, _, err := RunWith(c, inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, got["res"], workloads.MandelbrotRef(cxs, cys, iters), "mandelbrot out", n)
}

func TestMatmulEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 8
	a := randArray(rng, n*n)
	b := randArray(rng, n*n)
	inputs := map[string][]float64{"a": a, "bmat": b}
	c := compareRun(t, workloads.Matmul(n), Options{}, inputs)
	got, _, err := RunWith(c, inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, got["c"], workloads.MatmulRef(a, b, n), "matmul c", n*n)
	if c.IUGen.AddrRegs == 0 && c.IUGen.TableEntries == 0 {
		t.Errorf("matmul should exercise IU address generation")
	}
}

// TestPaperConfigsCompile compiles every workload at the paper's full
// size (Table 7-1) without running it.
func TestPaperConfigsCompile(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"1d-conv", workloads.Conv1DPaper()},
		{"binop", workloads.BinopPaper()},
		{"colorseg", workloads.ColorSegPaper()},
		{"mandelbrot", workloads.MandelbrotPaper()},
		{"polynomial", workloads.PolynomialPaper()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(tc.src, Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if c.Cell.NumInstrs() == 0 || c.IU.NumInstrs() == 0 {
				t.Fatalf("empty microcode: cell=%d iu=%d", c.Cell.NumInstrs(), c.IU.NumInstrs())
			}
		})
	}
}
