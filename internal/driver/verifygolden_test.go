package driver

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"warp/internal/verify"
	"warp/internal/workloads"
)

// The verifier's observable behaviour, pinned from the outside the way
// simgolden_test.go pins the simulator: the full verify.Report of every
// example and testdata program, and every diagnostic of every seeded
// mutation.  Both goldens were recorded from the verifier that carried
// its own IU emulator and loop unroller (before PR 16 moved the machine
// model into internal/mcode); a refactor of internal/verify must
// reproduce them byte for byte, Report.Checked — the benchmark ledger's
// verify.propositions — included.  Refresh with
// `go test ./internal/driver -run TestVerifyGolden -update` only when the
// set of propositions is meant to change.

// verifyGoldenCases are the programs scripts/verify-programs.sh checks:
// everything under testdata/ plus the example workloads at the sizes
// scripts/dumpw2 writes them.
func verifyGoldenCases(t *testing.T) []struct{ name, src string } {
	return []struct{ name, src string }{
		{"testdata/polynomial", readTestdata(t, "polynomial.w2")},
		{"testdata/matmul8", readTestdata(t, "matmul8.w2")},
		{"polynomial", workloads.Polynomial(10, 100)},
		{"conv1d", workloads.Conv1D(9, 64)},
		{"binop", workloads.Binop(64, 64)},
		{"colorseg", workloads.ColorSeg(32, 32, 10)},
		{"mandelbrot", workloads.Mandelbrot(64, 4)},
		{"matmul", workloads.Matmul(8)},
		{"fft", workloads.FFT(64)},
	}
}

// TestVerifyGoldenReports pins the Report JSON, plain and pipelined, at
// one worker and at four (the fan-out must not show).
func TestVerifyGoldenReports(t *testing.T) {
	var out bytes.Buffer
	for _, tc := range verifyGoldenCases(t) {
		for _, pipeline := range []bool{false, true} {
			name := tc.name + ".plain"
			if pipeline {
				name = tc.name + ".pipelined"
			}
			c, err := Compile(tc.src, Options{Pipeline: pipeline})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rep, err := verify.Verify(verifyProgram(c))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %s\n", name, got)
		}
	}
	checkGolden(t, filepath.Join("testdata", "verifyreports.golden"), out.Bytes())
}

// rejection renders one rejection's ordered diagnostic list, one
// (Invariant, Cell, Instr, Loop, Detail) tuple per line.
func rejection(t *testing.T, what string, err error) []byte {
	t.Helper()
	verr, ok := err.(*verify.Error)
	if !ok {
		t.Fatalf("%s: not rejected with structured diagnostics: %v", what, err)
	}
	var b bytes.Buffer
	for _, d := range verr.Diags {
		fmt.Fprintf(&b, "\t%s cell=%d instr=%d loop=%d %q\n", d.Invariant, d.Cell, d.Instr, d.Loop, d.Detail)
	}
	return b.Bytes()
}

// TestVerifyGoldenDiagnostics pins what the verifier says about every
// seeded mutation.  The three named workloads of
// TestVerifierRejectsMutationsOnWorkloads are kept in full text; for the
// 540 (random program, option set) pairs of TestVerifierSoundnessSweep
// one line carries a digest of the accepted Report and a digest over the
// rejections of every applicable mutation, in mutation order, and a
// second line the same digest over the in-range mutations.
func TestVerifyGoldenDiagnostics(t *testing.T) {
	var out bytes.Buffer
	for _, tc := range []struct{ name, src string }{
		{"polynomial", workloads.Polynomial(10, 40)},
		{"conv1d", workloads.Conv1D(9, 48)},
		{"matmul", workloads.Matmul(8)},
	} {
		c, err := Compile(tc.src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, m := range allMutations {
			p := mutated(c)
			if !m.apply(p) {
				continue
			}
			_, err := verify.Verify(*p)
			fmt.Fprintf(&out, "%s %s\n%s", tc.name, m.name, rejection(t, tc.name+" "+m.name, err))
		}
	}

	rng := rand.New(rand.NewSource(99)) // TestVerifierSoundnessSweep's programs
	for i := 0; i < 180; i++ {
		src, _ := workloads.RandomProgram(rng)
		for j, opts := range []Options{{}, {NoOptimize: true}, {Pipeline: true}} {
			c, err := Compile(src, opts)
			if err != nil {
				t.Fatalf("program %d: compile (%+v): %v", i, opts, err)
			}
			rep, err := verify.Verify(verifyProgram(c))
			if err != nil {
				t.Fatalf("program %d/%d: %v", i, j, err)
			}
			repJSON, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			digest := func(ms []mutation) (int, []byte) {
				h := sha256.New()
				applied := 0
				for _, m := range ms {
					p := mutated(c)
					if !m.apply(p) {
						continue
					}
					applied++
					_, err := verify.Verify(*p)
					fmt.Fprintf(h, "%s\n%s", m.name, rejection(t, fmt.Sprintf("program %d/%d %s", i, j, m.name), err))
				}
				return applied, h.Sum(nil)
			}
			applied, sum := digest(mutations)
			fmt.Fprintf(&out, "random %d/%d report %x, %d mutations %x\n", i, j, sha256.Sum256(repJSON), applied, sum)
			applied, sum = digest(inRangeMutations)
			fmt.Fprintf(&out, "random %d/%d %d in-range mutations %x\n", i, j, applied, sum)
		}
	}
	checkGolden(t, filepath.Join("testdata", "verifydiags.golden"), out.Bytes())
}
