package driver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"warp/internal/interp"
	"warp/internal/mcode"
	"warp/internal/workloads"
)

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// compareRun compiles src, checks it carries the verifier's report, runs
// the structural validators over the generated microcode (whatever the
// schedule — plain or pipelined), runs it on the simulator, and checks
// the outputs against the reference interpreter.
func compareRun(t *testing.T, src string, opts Options, inputs map[string][]float64) *Compiled {
	t.Helper()
	c, err := Compile(src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if c.Verified == nil {
		t.Fatal("verification phase did not run")
	}
	if err := mcode.ValidateCell(c.Cell); err != nil {
		t.Fatalf("cell program invalid: %v", err)
	}
	if err := mcode.ValidateIU(c.IU); err != nil {
		t.Fatalf("IU program invalid: %v", err)
	}
	want, err := interp.Run(c.Info, inputs)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	got, _, err := RunWith(c, inputs, RunOptions{})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("output %s: %d values, want %d", name, len(g), len(w))
		}
		for i := range w {
			if !approxEqual(g[i], w[i]) {
				t.Fatalf("output %s[%d] = %v, interpreter says %v", name, i, g[i], w[i])
			}
		}
	}
	return c
}

func randArray(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = math.Round(rng.Float64()*16-8) / 2
	}
	return a
}

// TestPolynomialEndToEnd compiles and simulates the paper's Figure 4-1
// program and checks every result against the interpreter (which in
// turn computes Horner's rule).
func TestPolynomialEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	inputs := map[string][]float64{
		"z": randArray(rng, 100),
		"c": randArray(rng, 10),
	}
	c := compareRun(t, readTestdata(t, "polynomial.w2"), Options{}, inputs)

	// Horner ground truth, straight from the math.
	z, coef := inputs["z"], inputs["c"]
	got, _, err := RunWith(c, inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range z {
		want := 0.0
		for _, cv := range coef {
			want = want*x + cv
		}
		if !approxEqual(got["results"][i], want) {
			t.Fatalf("results[%d] = %v, want %v", i, got["results"][i], want)
		}
	}
	if c.Cells != 10 {
		t.Errorf("cells = %d, want 10", c.Cells)
	}
	if c.Skew < 1 {
		t.Errorf("skew = %d, want >= 1", c.Skew)
	}
}

// TestCompileAllocBudget: nothing in a compile is sized by the dynamic
// I/O volume any more, so the paper-size colorseg (2.6 M host words)
// compiles, verified, within a few megabytes of allocation — a gate that
// does not depend on the host's speed.  And nothing in the modulo
// scheduler's search allocates per placement: mandelbrot, whose one
// 15-operation loop used to cost 13 179 allocations a compile (maps
// churned by 11 000 evictions), compiles in under 700 now that the list
// scheduler runs on the same dense block graph (1 564 while it kept its
// own maps; 1 359 while the IU code generator and the affine arithmetic
// still allocated per address site and per operation; 1 201 while each
// scheduler had its own emitter and every word was allocated alone;
// 1 026 while every instruction field was a heap object of its own and
// the debug map allocated loop frames per µPC; 890 while the front end
// allocated per token, node and side-table entry; 624 before the compile
// built the program's load for its runs, 632 since).
// Nor does the IU code generator allocate per address site, IU cycle or
// placement: fft1024, whose pipelined attempt the IU refuses before the
// plain schedule compiles, made 36 579 allocations a verified compile
// with string keys, pointer-keyed maps and a heap object per IU cycle
// (16 572 with two emitters, 14 564 while the refusal still grouped and
// planned every expression and commgraph built an arc per dependent
// pair, 12 628 with a heap object per instruction field, 10 861 with a
// heap object per AST node, IR node and side-table entry); it made
// 6 538 while the verifier decoded the cell program on its own, and
// 6 539 since it proves the load the runs read (whose IU decode and
// count wait for the first run); it stays under 6 750.
func TestCompileAllocBudget(t *testing.T) {
	src := workloads.ColorSegPaper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Compile(src, Options{Pipeline: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var words int64
	for _, s := range c.Host.In {
		words += s.Words()
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("colorseg 512²: %.2f MB allocated for %d input words, fingerprint %d bytes", mb, words, len(Fingerprint(c)))
	if mb >= 4 {
		t.Errorf("compile allocated %.2f MB, want under 4", mb)
	}
	if len(Fingerprint(c)) > 64<<10 {
		t.Errorf("fingerprint is %d bytes", len(Fingerprint(c)))
	}

	for _, tc := range []struct {
		name, src string
		budget    float64
	}{
		{"mandelbrot", workloads.Mandelbrot(32*32, 4), 700},
		{"fft1024", workloads.FFTPaper(), 6750},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Compile(tc.src, Options{Pipeline: true}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per verified compile", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s compile made %.0f allocations, want at most %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// TestCompileRejectsCycleOverflow: a nest whose cycle count does not fit
// in 64 bits is refused at compile time with an *mcode.OverflowError
// naming the loop the product overflows at.  It used to wrap silently
// and be verified: 2²¹·2²¹·2²¹ trips compiled to 13194145824772 cycles
// per cell and 2³¹·2³¹·2 to a negative count, both "proofs exact", while
// 3·10⁹ each failed in iugen on a body of negative length.
func TestCompileRejectsCycleOverflow(t *testing.T) {
	nest := func(i, j, k int64) string {
		return fmt.Sprintf(`module ovf (x in, y out)
float x[1];
float y[1];
cellprogram (cid : 0 : 0)
begin
    function f
    begin
        float r;
        int i, j, k;
        receive (L, X, r, x[0]);
        for i := 0 to %d do begin
            for j := 0 to %d do begin
                for k := 0 to %d do begin
                    r := r * 0.5;
                end;
            end;
        end;
        send (R, X, r, y[0]);
    end
    call f;
end
`, i-1, j-1, k-1)
	}
	// The loops are numbered innermost first: L2 is i, L1 is j.
	for _, tc := range []struct {
		name    string
		i, j, k int64
		loop    int
	}{
		{"2^21-cubed", 1 << 21, 1 << 21, 1 << 21, 2},
		{"2^31-2^31-2", 1 << 31, 1 << 31, 2, 2},
		{"3e9-cubed", 3e9, 3e9, 3e9, 1},
	} {
		for _, opts := range []Options{{}, {Pipeline: true}} {
			c, err := Compile(nest(tc.i, tc.j, tc.k), opts)
			var ovf *mcode.OverflowError
			if !errors.As(err, &ovf) {
				var cycles int64
				if err == nil {
					cycles = c.ModeledCycles()
				}
				t.Errorf("%s (pipeline %v): err = %v (%d cycles), want an overflow at loop L%d", tc.name, opts.Pipeline, err, cycles, tc.loop)
				continue
			}
			if ovf.Loop != tc.loop || !ovf.Cycles {
				t.Errorf("%s (pipeline %v): %v, want the cycle count at loop L%d", tc.name, opts.Pipeline, err, tc.loop)
			}
		}
	}
}

// TestFrontEndAllocBudget: the front end of stages (parse, sema, flowgraph,
// optimize, commgraph) allocates by the slab, not by the token, AST
// node, IR node or side-table entry.  The eight benchmark programs made
// 7 623 allocations a sweep when the token slice grew by appending,
// every node, affine form and map entry was an allocation of its own and
// the IR builder made five maps per block; they make 1 245 now.
func TestFrontEndAllocBudget(t *testing.T) {
	const budget = 1400
	allocs := testing.AllocsPerRun(5, func() {
		for _, p := range p8 {
			c := &Compiled{Src: p.src}
			if err := c.run(stages[:backEnd], Options{Pipeline: p.pipeline}, time.Now()); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.0f allocations per front-end sweep of the eight benchmark programs", allocs)
	if allocs > budget {
		t.Errorf("front-end sweep made %.0f allocations, want at most %d", allocs, budget)
	}
}
