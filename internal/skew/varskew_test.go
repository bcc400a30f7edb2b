package skew_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"warp/internal/paper"
	"warp/internal/skew"
)

// TestVariableSkewFig64: on the Figure 6-4 program, just-in-time
// receives reduce queue demand without changing latency.
func TestVariableSkewFig64(t *testing.T) {
	p := paper.Fig64()
	r, err := paper.VariableSkew(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.FixedSkew != 18 {
		t.Errorf("fixed skew %d, want 18", r.FixedSkew)
	}
	if r.VarOccupancy > r.FixedOccupancy {
		t.Errorf("variable occupancy %d exceeds fixed %d", r.VarOccupancy, r.FixedOccupancy)
	}
	if r.VarOccupancy < 1 {
		t.Errorf("variable occupancy %d; at least one word must be in flight", r.VarOccupancy)
	}
	// The binding receive keeps its fixed-skew time: max delay = skew.
	maxDelay := int64(0)
	for _, d := range r.Delays {
		if d > maxDelay {
			maxDelay = d
		}
	}
	if maxDelay != r.FixedSkew {
		t.Errorf("max just-in-time delay %d, want the fixed skew %d (the binding constraint)", maxDelay, r.FixedSkew)
	}
	t.Log("\n" + r.Describe())
}

// TestVariableSkewQuick: on random balanced programs, the variable
// discipline never increases queue demand, never delays a receive past
// the fixed schedule, and all delays are nonnegative.
func TestVariableSkewQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randProg(rng, true)
		if p.Count(skew.Input) == 0 {
			return true
		}
		r, err := paper.VariableSkew(p, p)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if r.VarOccupancy > r.FixedOccupancy {
			t.Logf("seed %d: occupancy grew %d -> %d", seed, r.FixedOccupancy, r.VarOccupancy)
			return false
		}
		ti := paper.Times(p, skew.Input)
		to := paper.Times(p, skew.Output)
		for n, d := range r.Delays {
			if d < 0 || d > r.FixedSkew {
				t.Logf("seed %d: delay %d out of range", seed, n)
				return false
			}
			// Just-in-time time must still be at or after the send.
			if ti[n]+d < to[n] {
				t.Logf("seed %d: receive %d before its send", seed, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
