package driver

import (
	"math/rand"
	"testing"

	"warp/internal/interp"
	"warp/internal/workloads"
)

// FuzzRandomEquivalence drives the whole pipeline from a fuzzed seed:
// generate a random W2 program, compile under every configuration,
// simulate, and compare word for word against the reference
// interpreter.  The seed corpus runs as a regular test; explore with
// `go test -fuzz=FuzzRandomEquivalence ./internal/driver`.
func FuzzRandomEquivalence(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		src, inputs := workloads.RandomProgram(rng)
		for _, opts := range []Options{{Verify: true}, {NoOptimize: true, Verify: true}, {Pipeline: true, Verify: true}} {
			c, err := Compile(src, opts)
			if err != nil {
				t.Fatalf("compile (%+v): %v\n%s", opts, err, src)
			}
			want, err := interp.Run(c.Info, inputs)
			if err != nil {
				t.Fatalf("interpret: %v\n%s", err, src)
			}
			got, _, err := RunWith(c, inputs, RunOptions{})
			if err != nil {
				t.Fatalf("simulate (%+v): %v\n%s", opts, err, src)
			}
			for name, w := range want {
				for i := range w {
					if !approxEqual(got[name][i], w[i]) {
						t.Fatalf("(%+v) %s[%d] = %v, interpreter says %v\n%s",
							opts, name, i, got[name][i], w[i], src)
					}
				}
			}
		}
	})
}
