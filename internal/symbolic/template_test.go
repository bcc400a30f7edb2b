package symbolic

import (
	"fmt"
	"strings"
	"testing"

	"warp/internal/driver"
	"warp/internal/workloads"
)

// symWorkloads pairs each symbolic workload with its concrete
// generator and a sweep of bound vectors (the first is the class base;
// later ones must hit the fitted class).
type symCase struct {
	name   string
	src    string
	sweep  []map[string]int64
	concAt func(b map[string]int64) string
}

func symCases() []symCase {
	matmulSweep := []map[string]int64{}
	for n := int64(8); n <= 44; n += 6 {
		matmulSweep = append(matmulSweep, map[string]int64{"n": n})
	}
	convSweep := []map[string]int64{}
	for n := int64(32); n <= 128; n += 24 {
		convSweep = append(convSweep, map[string]int64{"k": 5, "n": n})
	}
	polySweep := []map[string]int64{}
	for np := int64(40); np <= 160; np += 40 {
		polySweep = append(polySweep, map[string]int64{"ncoef": 8, "npoints": np})
	}
	return []symCase{
		{
			name: "matmul", src: workloads.MatmulSym(), sweep: matmulSweep,
			concAt: func(b map[string]int64) string { return workloads.Matmul(int(b["n"])) },
		},
		{
			name: "conv1d", src: workloads.Conv1DSym(), sweep: convSweep,
			concAt: func(b map[string]int64) string { return workloads.Conv1D(int(b["k"]), int(b["n"])) },
		},
		{
			name: "polynomial", src: workloads.PolynomialSym(), sweep: polySweep,
			concAt: func(b map[string]int64) string {
				return workloads.Polynomial(int(b["ncoef"]), int(b["npoints"]))
			},
		},
	}
}

// TestSymbolicSourceMatchesGenerators pins the substitution contract:
// the symbolic workload sources reproduce their concrete generators
// byte for byte, so templates and generator-driven tools compile the
// same programs.
func TestSymbolicSourceMatchesGenerators(t *testing.T) {
	for _, tc := range symCases() {
		src, err := ParseSource(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, bounds := range tc.sweep {
			conc, err := src.Concrete(bounds)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, bounds, err)
			}
			if want := tc.concAt(bounds); conc != want {
				t.Fatalf("%s %v: substituted source differs from generator output", tc.name, bounds)
			}
		}
	}
}

// TestInstantiateMatchesConcrete is the core differential contract of
// the subsystem: across the workload sweep, plain and pipelined, every
// instantiated artifact must carry the same fingerprint as a cold
// compile of the substituted source.  In plain mode every sweep point
// must additionally be served symbolically (conv1d exercises axis
// pinning: its k axis saturates a verifier statistic, so the class
// pins k and interpolates along n).  In pipelined mode the modulo
// scheduler's placements shift with the concrete sizes, so only the
// class base replays symbolically (as a point class) and the rest must
// fall back — detected by the skeleton check, never by a consumer.
func TestInstantiateMatchesConcrete(t *testing.T) {
	cases := symCases()
	if testing.Short() {
		for i := range cases {
			cases[i].sweep = cases[i].sweep[:2]
		}
	}
	for _, tc := range cases {
		for _, pipe := range []bool{false, true} {
			mode := "plain"
			if pipe {
				mode = "pipelined"
			}
			tc := tc
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				opts := driver.Options{Pipeline: pipe, Verify: true}
				tmpl, err := CompileTemplate(tc.src, opts)
				if err != nil {
					t.Fatal(err)
				}
				symbolicHits := 0
				for _, bounds := range tc.sweep {
					inst, detail, err := tmpl.Instantiate(bounds)
					if err != nil {
						t.Fatalf("instantiate %v: %v", bounds, err)
					}
					conc, err := driver.Compile(tc.concAt(bounds), opts)
					if err != nil {
						t.Fatalf("concrete compile %v: %v", bounds, err)
					}
					got, want := driver.Fingerprint(inst), driver.Fingerprint(conc)
					if got != want {
						t.Errorf("%v (symbolic=%v): instantiated artifact diverged:\n%s",
							bounds, detail.Symbolic, firstDiff(want, got))
					}
					if detail.Symbolic {
						symbolicHits++
					}
				}
				if !pipe && symbolicHits < len(tc.sweep) {
					t.Errorf("only %d/%d sweep points served symbolically (want all: the sweep is one residue class)",
						symbolicHits, len(tc.sweep))
				}
				if pipe && symbolicHits < 1 {
					t.Error("pipelined class base not served symbolically (point class expected)")
				}
				if st := tmpl.Stats(); st.Instantiations != int64(symbolicHits) || st.ClassBuilds == 0 {
					t.Errorf("stats %+v inconsistent with %d symbolic hits", st, symbolicHits)
				}
			})
		}
	}
}

// TestInstantiateRunsIdentically closes the loop end to end: an
// instantiated matmul must simulate to the same outputs and cycle
// count as its cold-compiled twin, on both backends.
func TestInstantiateRunsIdentically(t *testing.T) {
	tmpl, err := CompileTemplate(workloads.MatmulSym(), driver.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	if _, _, err := tmpl.Instantiate(map[string]int64{"n": 8}); err != nil {
		t.Fatal(err)
	}
	inst, detail, err := tmpl.Instantiate(map[string]int64{"n": n})
	if err != nil {
		t.Fatal(err)
	}
	if !detail.Symbolic {
		t.Fatalf("n=%d not served symbolically: %s", n, detail.FallbackReason)
	}
	conc, err := driver.Compile(workloads.Matmul(n), driver.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) - 3
		b[i] = float64(i%5) - 2
	}
	inputs := map[string][]float64{"a": a, "bmat": b}
	for _, backend := range []string{driver.BackendSim, driver.BackendFast} {
		iOut, iStats, err := driver.RunWith(inst, inputs, driver.RunOptions{Backend: backend})
		if err != nil {
			t.Fatalf("%s: run instantiated: %v", backend, err)
		}
		cOut, cStats, err := driver.RunWith(conc, inputs, driver.RunOptions{Backend: backend})
		if err != nil {
			t.Fatalf("%s: run concrete: %v", backend, err)
		}
		if iStats.Cycles != cStats.Cycles {
			t.Errorf("%s: %d cycles instantiated, %d concrete", backend, iStats.Cycles, cStats.Cycles)
		}
		want := workloads.MatmulRef(a, b, n)
		for i, v := range iOut["c"] {
			if v != cOut["c"][i] || v != want[i] {
				t.Fatalf("%s: c[%d] = %g (concrete %g, reference %g)", backend, i, v, cOut["c"][i], want[i])
			}
		}
	}
	if inst.ModeledCycles() != conc.ModeledCycles() {
		t.Errorf("modeled cycles %d != concrete %d", inst.ModeledCycles(), conc.ModeledCycles())
	}
}

func phaseNames(c *driver.Compiled) string {
	names := make([]string, len(c.Phases))
	for i, p := range c.Phases {
		names[i] = p.Name
	}
	return strings.Join(names, " ")
}

// TestOffLatticeFallsBack: bounds below a class base fall back to a
// concrete compile — transparently, and still fingerprint-identical to
// a cold compile — while bounds in a different residue class get their
// own class fitted on demand.  (Matmul's discovered period is 6: its
// IU distribution loop unrolls.)
func TestOffLatticeFallsBack(t *testing.T) {
	tmpl, err := CompileTemplate(workloads.MatmulSym(), driver.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	// The artifact's Phases are the timeline of the call that produced
	// it: the first request of a class pays for the build, then
	// instantiates; the phases do not overlap.
	inst, _, err := tmpl.Instantiate(map[string]int64{"n": 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := phaseNames(inst); got != "template-build template-instantiate" {
		t.Errorf("n=16 (first of its class) phases = %q", got)
	} else if b, i := inst.Phases[0], inst.Phases[1]; b.Start <= 0 || b.Seconds <= 0 || i.Start < b.Start+b.Seconds-1e-9 {
		t.Errorf("template-build [%g +%g] must follow the discovery compile and end before template-instantiate starts at %g", b.Start, b.Seconds, i.Start)
	}
	if inst, _, err = tmpl.Instantiate(map[string]int64{"n": 22}); err != nil {
		t.Fatal(err)
	} else if got := phaseNames(inst); got != "template-instantiate" {
		t.Errorf("n=22 (class already fitted) phases = %q", got)
	}
	// n=10 ≡ 16 (mod 6): same class, below its base — must fall back.
	inst, detail, err := tmpl.Instantiate(map[string]int64{"n": 10})
	if err != nil {
		t.Fatal(err)
	}
	if detail.Symbolic {
		t.Fatal("n=10 (below the class base) unexpectedly served symbolically")
	}
	// A fallback's phases are the concrete compile's, shifted past what
	// the call spent before compiling.
	if got := phaseNames(inst); !strings.HasPrefix(got, "parse sema ") || strings.Contains(got, "template-") || inst.Phases[0].Start <= 0 {
		t.Errorf("n=10 fallback phases = %q starting at %g, want a concrete compile's at a positive offset", got, inst.Phases[0].Start)
	}
	conc, err := driver.Compile(workloads.Matmul(10), driver.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if driver.Fingerprint(inst) != driver.Fingerprint(conc) {
		t.Error("n=10: fallback artifact differs from cold compile")
	}
	// n=9 ≢ 16 (mod 6): a new residue class, fitted on first request.
	inst, detail, err = tmpl.Instantiate(map[string]int64{"n": 9})
	if err != nil {
		t.Fatal(err)
	}
	if !detail.Symbolic || !detail.ClassBuilt || phaseNames(inst) != "template-build template-instantiate" {
		t.Fatalf("n=9 should fit its own residue class (detail %+v, phases %q)", detail, phaseNames(inst))
	}
	conc, err = driver.Compile(workloads.Matmul(9), driver.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if driver.Fingerprint(inst) != driver.Fingerprint(conc) {
		t.Error("n=9: new-class artifact differs from cold compile")
	}
	if st := tmpl.Stats(); st.Fallbacks != 1 || st.ClassBuilds != 2 {
		t.Errorf("stats %+v, want 1 fallback and 2 class builds", st)
	}
}

// TestBoundsValidation: missing and unknown parameters fail loudly.
func TestBoundsValidation(t *testing.T) {
	tmpl, err := CompileTemplate(workloads.MatmulSym(), driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tmpl.Params(); len(got) != 1 || got[0] != "n" {
		t.Fatalf("Params() = %v, want [n]", got)
	}
	if _, _, err := tmpl.Instantiate(nil); err == nil || !strings.Contains(err.Error(), "missing bound") {
		t.Errorf("missing bound: err = %v", err)
	}
	if _, _, err := tmpl.Instantiate(map[string]int64{"n": 8, "m": 3}); err == nil || !strings.Contains(err.Error(), "not a template parameter") {
		t.Errorf("unknown bound: err = %v", err)
	}
	if _, err := CompileTemplate("module m (a in)\n", driver.Options{}); err == nil {
		t.Error("CompileTemplate accepted source with no placeholders")
	}
}

// firstDiff mirrors the driver equivalence harness's failure rendering.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  concrete:     %q\n  instantiated: %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: concrete %d lines, instantiated %d lines", len(wl), len(gl))
}
