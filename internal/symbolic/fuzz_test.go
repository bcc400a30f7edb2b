package symbolic

import (
	"math/rand"
	"sync"
	"testing"

	"warp/internal/driver"
	"warp/internal/workloads"
)

// FuzzSymbolicInstantiation is the differential fuzzer for the symbolic
// compile path, alongside the driver's FuzzCompileParallel: a random
// (workload family, compile mode, bound vector) triple — including
// degenerate, below-base and off-lattice bounds — must behave exactly
// like a concrete compile of the substituted source.  Accepted bounds
// must produce fingerprint-identical artifacts whether they were served
// from closed forms or by fallback, and rejected bounds must be
// rejected by both paths.  The six (source, pipeline) templates are
// shared across executions, so class builds stay amortized and the
// class state accumulated by earlier inputs is itself under test.  The
// seed corpus runs as a regular test; explore with
// `go test -fuzz=FuzzSymbolicInstantiation ./internal/symbolic`.
func FuzzSymbolicInstantiation(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	type tmplKey struct {
		src      string
		pipeline bool
	}
	var mu sync.Mutex
	templates := map[tmplKey]*Template{}
	shared := func(src string, opts driver.Options) (*Template, error) {
		mu.Lock()
		defer mu.Unlock()
		k := tmplKey{src, opts.Pipeline}
		if tmpl, ok := templates[k]; ok {
			return tmpl, nil
		}
		tmpl, err := CompileTemplate(src, opts)
		if err == nil {
			templates[k] = tmpl
		}
		return tmpl, err
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var src string
		bounds := map[string]int64{}
		switch rng.Intn(3) {
		case 0:
			src = workloads.MatmulSym()
			bounds["n"] = int64(rng.Intn(40)) // 0 and 1 included: degenerate sizes must reject identically
		case 1:
			src = workloads.Conv1DSym()
			bounds["k"] = int64(rng.Intn(14))
			bounds["n"] = int64(rng.Intn(96))
		default:
			src = workloads.PolynomialSym()
			bounds["ncoef"] = int64(rng.Intn(14))
			bounds["npoints"] = int64(rng.Intn(80))
		}
		opts := driver.Options{Pipeline: rng.Intn(2) == 1, Verify: true}

		tmpl, err := shared(src, opts)
		if err != nil {
			t.Fatalf("template build: %v\n%s", err, src)
		}
		conc, cerr := tmpl.Source.Concrete(bounds)
		if cerr != nil {
			t.Fatalf("bound substitution: %v", cerr)
		}

		inst, _, ierr := tmpl.Instantiate(bounds)
		ref, rerr := driver.Compile(conc, opts)
		if (ierr == nil) != (rerr == nil) {
			t.Fatalf("acceptance diverged at %v (pipeline=%v): template says %v, concrete says %v",
				bounds, opts.Pipeline, ierr, rerr)
		}
		if ierr != nil {
			return
		}
		ifp, rfp := driver.Fingerprint(inst), driver.Fingerprint(ref)
		if ifp != rfp {
			t.Fatalf("artifacts diverged at %v (pipeline=%v):\n%s", bounds, opts.Pipeline, firstDiff(ifp, rfp))
		}
	})
}
