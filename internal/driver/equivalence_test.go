package driver

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"warp/internal/workloads"
)

// compileFingerprint is the determinism contract's byte string; since
// PR 10 the canonical definition is driver.Fingerprint.
func compileFingerprint(t *testing.T, c *Compiled) string {
	t.Helper()
	return Fingerprint(c)
}

// phaseNames returns the compile's phase names in execution order.
func phaseNames(c *Compiled) string {
	var names []string
	for _, p := range c.Phases {
		names = append(names, p.Name)
	}
	return strings.Join(names, ",")
}

// compileAtOnce has n callers compile src at the same moment — what
// warpd's pool does to the compiler — and returns each caller's result.
// A compilation is one goroutine; the concurrency under test is between
// compilations.
func compileAtOnce(n int, src string, opts Options) ([]*Compiled, []error) {
	cs, errs := make([]*Compiled, n), make([]error, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			cs[i], errs[i] = Compile(src, opts)
		}(i)
	}
	close(start)
	wg.Wait()
	return cs, errs
}

// TestCompileEquivalence is the compile-equivalence harness: every
// example workload, plain and software-pipelined, compiled by 2 and by
// 8 concurrent callers, must produce in every caller the microcode, host
// programs, skew vectors, scheduler counters and phase order of a lone
// compile.  Run under -race, this is the data-race probe for state the
// compiler's packages share between compilations, and it catches output
// that depends on map iteration order.
func TestCompileEquivalence(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"polynomial", workloads.PolynomialPaper()},
		{"1d-conv", workloads.Conv1DPaper()},
		{"binop", workloads.BinopPaper()},
		{"colorseg", workloads.ColorSegPaper()},
		{"mandelbrot", workloads.MandelbrotPaper()},
		{"matmul8", workloads.Matmul(8)},
		{"fft16", workloads.FFT(16)},
		{"conv1d-512", workloads.Conv1D(9, 512)},
		// The one case whose pipelined compile backs off: the back end
		// runs twice on one compilation.
		{"fft1024", workloads.FFTPaper()},
	}
	if testing.Short() {
		cases = cases[:3]
	}
	for _, tc := range cases {
		for _, pipe := range []bool{false, true} {
			mode := "plain"
			if pipe {
				mode = "pipelined"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				opts := Options{Pipeline: pipe, Verify: true}
				ref, err := Compile(tc.src, opts)
				if err != nil {
					t.Fatalf("lone compile: %v", err)
				}
				refFP := compileFingerprint(t, ref)
				refPhases := phaseNames(ref)
				for _, callers := range []int{2, 8} {
					cs, errs := compileAtOnce(callers, tc.src, opts)
					for i, c := range cs {
						if errs[i] != nil {
							t.Fatalf("caller %d of %d: %v", i, callers, errs[i])
						}
						if fp := compileFingerprint(t, c); fp != refFP {
							t.Errorf("caller %d of %d: output diverged from a lone compile:\n%s",
								i, callers, firstDiff(refFP, fp))
						}
						if pn := phaseNames(c); pn != refPhases {
							t.Errorf("caller %d of %d: phase order %q, alone %q", i, callers, pn, refPhases)
						}
					}
				}
			})
		}
	}
}

// TestCompileEquivalenceCycles closes the loop on the contract's
// "cycle counts" clause: programs compiled by concurrent callers must
// simulate to the cycle count of a lone compile (guaranteed by
// byte-identical microcode, asserted here end to end on a small
// workload).
func TestCompileEquivalenceCycles(t *testing.T) {
	src := workloads.Polynomial(10, 100)
	opts := Options{Pipeline: true, Verify: true}
	inputs := map[string][]float64{
		"z": make([]float64, 100), "c": make([]float64, 10),
	}
	cycles := func(c *Compiled) int64 {
		t.Helper()
		_, stats, err := RunWith(c, inputs, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Cycles
	}
	lone, err := Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := cycles(lone)
	for _, callers := range []int{2, 8} {
		cs, errs := compileAtOnce(callers, src, opts)
		for i, c := range cs {
			if errs[i] != nil {
				t.Fatalf("caller %d of %d: %v", i, callers, errs[i])
			}
			if got := cycles(c); got != ref {
				t.Errorf("caller %d of %d: %d cycles, a lone compile gave %d", i, callers, got, ref)
			}
		}
	}
}

// firstDiff locates the first divergent line of two fingerprints so a
// failure names the diverging artifact instead of dumping both.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  alone:      %q\n  concurrent: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: alone %d lines, concurrent %d lines", len(al), len(bl))
}

// FuzzCompileParallel is the differential fuzzer for concurrent
// compilation: every random program, compiled by 2 and by 8 callers at
// once — plain, plain without the optimizer and pipelined, with
// verification on — must give every caller what a lone compile gives:
// bit-identical artifacts for an accepted program (which therefore also
// passes the static verifier under both schedules), the same error for
// a rejected one.
// The seed corpus runs as a regular test; explore with
// `go test -fuzz=FuzzCompileParallel ./internal/driver`.
func FuzzCompileParallel(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		src, _ := workloads.RandomProgram(rng)
		for _, opts := range []Options{{Verify: true}, {NoOptimize: true, Verify: true}, {Pipeline: true, Verify: true}} {
			lone, loneErr := Compile(src, opts)
			var loneFP string
			if loneErr == nil {
				if lone.Verified == nil {
					t.Fatalf("%+v: verification did not run", opts)
				}
				loneFP = compileFingerprint(t, lone)
			}
			for _, callers := range []int{2, 8} {
				cs, errs := compileAtOnce(callers, src, opts)
				for i, c := range cs {
					// The generator can emit programs the compiler
					// rejects; rejection must not depend on company.
					if loneErr != nil || errs[i] != nil {
						if fmt.Sprint(loneErr) != fmt.Sprint(errs[i]) {
							t.Fatalf("%+v: caller %d of %d got error %v, a lone compile %v\n%s",
								opts, i, callers, errs[i], loneErr, src)
						}
						continue
					}
					if fp := compileFingerprint(t, c); fp != loneFP {
						t.Fatalf("%+v: caller %d of %d diverged from a lone compile:\n%s\n%s",
							opts, i, callers, firstDiff(loneFP, fp), src)
					}
				}
			}
		}
	})
}
