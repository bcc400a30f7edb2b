package driver

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"warp/internal/workloads"
)

// compileFingerprint is the determinism contract's byte string; since
// PR 10 the canonical definition is driver.Fingerprint.
func compileFingerprint(t *testing.T, c *Compiled) string {
	t.Helper()
	return Fingerprint(c)
}

// phaseNames returns the compile's phase names in merge order — the
// canonical order must itself be independent of the worker count.
func phaseNames(c *Compiled) string {
	var names []string
	for _, p := range c.Phases {
		names = append(names, p.Name)
	}
	return strings.Join(names, ",")
}

// TestCompileEquivalence is the compile-equivalence harness: every
// example workload, plain and software-pipelined, compiled at 1, 2 and
// 8 workers, must produce byte-identical microcode, host programs,
// skew vectors and scheduler counters.  The serial compilation
// (CompileWorkers=1) is the reference.  Run under -race in CI, this is
// also the data-race probe for the whole parallel compile path.
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
				ref, err := Compile(tc.src, Options{Pipeline: pipe, Verify: true, CompileWorkers: 1})
				if err != nil {
					t.Fatalf("serial compile: %v", err)
				}
				refFP := compileFingerprint(t, ref)
				refPhases := phaseNames(ref)
				for _, workers := range []int{2, 8} {
					c, err := Compile(tc.src, Options{Pipeline: pipe, Verify: true, CompileWorkers: workers})
					if err != nil {
						t.Fatalf("workers=%d compile: %v", workers, err)
					}
					if fp := compileFingerprint(t, c); fp != refFP {
						t.Errorf("workers=%d: output diverged from serial compile:\n%s",
							workers, firstDiff(refFP, fp))
					}
					if pn := phaseNames(c); pn != refPhases {
						t.Errorf("workers=%d: phase order %q, serial %q", workers, pn, refPhases)
					}
				}
			})
		}
	}
}

// TestCompileEquivalenceCycles closes the loop on the contract's
// "cycle counts" clause: programs compiled at different worker counts
// must simulate to the same cycle count (guaranteed by byte-identical
// microcode, asserted here end to end on a small workload).
func TestCompileEquivalenceCycles(t *testing.T) {
	src := workloads.Polynomial(10, 100)
	inputs := map[string][]float64{
		"z": make([]float64, 100), "c": make([]float64, 10),
	}
	var ref int64
	for i, workers := range []int{1, 2, 8} {
		c, err := Compile(src, Options{Pipeline: true, Verify: true, CompileWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		_, stats, err := Run(c, inputs)
		if err != nil {
			t.Fatalf("workers=%d run: %v", workers, err)
		}
		if i == 0 {
			ref = stats.Cycles
		} else if stats.Cycles != ref {
			t.Errorf("workers=%d: %d cycles, serial compile gave %d", workers, stats.Cycles, ref)
		}
	}
}

// firstDiff locates the first divergent line of two fingerprints so a
// failure names the diverging artifact instead of dumping both.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  serial:   %q\n  parallel: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: serial %d lines, parallel %d lines", len(al), len(bl))
}

// FuzzCompileParallel is the differential fuzzer for the parallel
// compile path: every accepted random program must compile to
// bit-identical artifacts serially and at 8 workers, in both plain and
// pipelined modes, with verification on — so every accepted program
// also passes the static verifier under both schedules.  The seed
// corpus runs as a regular test; explore with
// `go test -fuzz=FuzzCompileParallel ./internal/driver`.
func FuzzCompileParallel(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		src, _ := workloads.RandomProgram(rng)
		for _, pipe := range []bool{false, true} {
			serial, err := Compile(src, Options{Pipeline: pipe, Verify: true, CompileWorkers: 1})
			if err != nil {
				// The generator can emit programs the front end
				// rejects; the contract is only about accepted ones —
				// but rejection itself must be worker-independent.
				if _, perr := Compile(src, Options{Pipeline: pipe, Verify: true, CompileWorkers: 8}); perr == nil {
					t.Fatalf("pipeline=%v: serial compile rejected (%v) but parallel accepted\n%s", pipe, err, src)
				}
				continue
			}
			par, err := Compile(src, Options{Pipeline: pipe, Verify: true, CompileWorkers: 8})
			if err != nil {
				t.Fatalf("pipeline=%v: parallel compile rejected what serial accepted: %v\n%s", pipe, err, src)
			}
			sfp, pfp := compileFingerprint(t, serial), compileFingerprint(t, par)
			if sfp != pfp {
				t.Fatalf("pipeline=%v: serial and 8-worker compiles diverged:\n%s\n%s",
					pipe, firstDiff(sfp, pfp), src)
			}
			if serial.Verified == nil || par.Verified == nil {
				t.Fatalf("pipeline=%v: verification did not run", pipe)
			}
		}
	})
}
