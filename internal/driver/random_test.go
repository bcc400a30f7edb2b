package driver

import (
	"math/rand"
	"testing"

	"warp/internal/interp"
	"warp/internal/workloads"
)

// TestRandomProgramsEquivalence is the pipeline's central property
// test: for randomly generated W2 programs, the compiled microcode
// running on the cycle-accurate simulator must produce exactly the
// words the reference interpreter produces — under every compiler
// configuration.
func TestRandomProgramsEquivalence(t *testing.T) {
	const programs = 150
	configs := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"noopt", Options{NoOptimize: true}},
		{"pipelined", Options{Pipeline: true}},
	}
	rng := rand.New(rand.NewSource(20260706))
	for p := 0; p < programs; p++ {
		src, inputs := workloads.RandomProgram(rng)
		for _, cfg := range configs {
			c, err := Compile(src, cfg.opts)
			if err != nil {
				t.Fatalf("program %d [%s]: compile failed: %v\nsource:\n%s", p, cfg.name, err, src)
			}
			want, err := interp.Run(c.Info, inputs)
			if err != nil {
				t.Fatalf("program %d: interpreter failed: %v\nsource:\n%s", p, err, src)
			}
			got, _, err := RunWith(c, inputs, RunOptions{})
			if err != nil {
				t.Fatalf("program %d [%s]: simulation failed: %v\nsource:\n%s", p, cfg.name, err, src)
			}
			for name, w := range want {
				for i := range w {
					if !approxEqual(got[name][i], w[i]) {
						t.Fatalf("program %d [%s]: %s[%d] = %v, interpreter says %v\nsource:\n%s",
							p, cfg.name, name, i, got[name][i], w[i], src)
					}
				}
			}
		}
	}
}

// TestRandomProgramsConfigAgreement cross-checks the three compiler
// configurations against each other (they share no scheduling code
// paths for loops, so agreement is meaningful).
func TestRandomProgramsConfigAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for p := 0; p < 40; p++ {
		src, inputs := workloads.RandomProgram(rng)
		var ref map[string][]float64
		for _, opts := range []Options{{}, {NoOptimize: true}, {Pipeline: true}} {
			c, err := Compile(src, opts)
			if err != nil {
				t.Fatalf("program %d: %v\nsource:\n%s", p, err, src)
			}
			got, _, err := RunWith(c, inputs, RunOptions{})
			if err != nil {
				t.Fatalf("program %d: %v\nsource:\n%s", p, err, src)
			}
			if ref == nil {
				ref = got
				continue
			}
			for name, w := range ref {
				for i := range w {
					if !approxEqual(got[name][i], w[i]) {
						t.Fatalf("program %d: configs disagree on %s[%d]: %v vs %v\nsource:\n%s",
							p, name, i, got[name][i], w[i], src)
					}
				}
			}
		}
	}
}
