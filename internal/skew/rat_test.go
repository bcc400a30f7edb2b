package skew_test

import (
	"math/big"
	"testing"
	"testing/quick"

	"warp/internal/paper"
)

func TestRatBasics(t *testing.T) {
	if got := paper.R(52, 3).Add(paper.R(5, 3).MulI(4)); got.Cmp(paper.RI(24)) != 0 {
		t.Errorf("52/3 + 20/3 = %s, want 24", got)
	}
	if got := paper.R(6, 4); got.Num() != 3 || got.Den() != 2 {
		t.Errorf("6/4 not normalized: %s", got)
	}
	if got := paper.R(3, -6); got.Num() != -1 || got.Den() != 2 {
		t.Errorf("3/-6 = %s, want -1/2", got)
	}
	if paper.R(1, 2).String() != "1/2" || paper.RI(-7).String() != "-7" {
		t.Error("rendering broken")
	}
}

func TestRatCeilFloor(t *testing.T) {
	cases := []struct {
		r          paper.Rat
		ceil, flor int64
	}{
		{paper.R(55, 3), 19, 18},
		{paper.R(-55, 3), -18, -19},
		{paper.RI(4), 4, 4},
		{paper.R(0, 5), 0, 0},
		{paper.R(-1, 2), 0, -1},
	}
	for _, c := range cases {
		if got := c.r.Ceil(); got != c.ceil {
			t.Errorf("Ceil(%s) = %d, want %d", c.r, got, c.ceil)
		}
		if got := c.r.Floor(); got != c.flor {
			t.Errorf("Floor(%s) = %d, want %d", c.r, got, c.flor)
		}
	}
}

func TestRatZeroDenominatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("R(1,0) must panic")
		}
	}()
	paper.R(1, 0)
}

// TestRatQuickProperties cross-checks rational arithmetic against
// math/big.Rat as the oracle.
func TestRatQuickProperties(t *testing.T) {
	type pair struct{ N, D int8 }
	f := func(a, b pair) bool {
		if a.D == 0 || b.D == 0 {
			return true
		}
		ra, rb := paper.R(int64(a.N), int64(a.D)), paper.R(int64(b.N), int64(b.D))
		ba := big.NewRat(int64(a.N), int64(a.D))
		bb := big.NewRat(int64(b.N), int64(b.D))
		same := func(r paper.Rat, want *big.Rat) bool {
			return big.NewRat(r.Num(), r.Den()).Cmp(want) == 0
		}
		if !same(ra.Add(rb), new(big.Rat).Add(ba, bb)) {
			return false
		}
		if !same(ra.Sub(rb), new(big.Rat).Sub(ba, bb)) {
			return false
		}
		if !same(ra.Mul(rb), new(big.Rat).Mul(ba, bb)) {
			return false
		}
		if !same(ra.Neg(), new(big.Rat).Neg(ba)) {
			return false
		}
		if !same(ra.MulI(int64(b.N)), new(big.Rat).Mul(ba, big.NewRat(int64(b.N), 1))) {
			return false
		}
		return ra.Cmp(rb) == ba.Cmp(bb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRatCeilFloorQuick(t *testing.T) {
	f := func(n int16, d int8) bool {
		if d == 0 {
			return true
		}
		r := paper.R(int64(n), int64(d))
		c, fl := r.Ceil(), r.Floor()
		// fl ≤ r ≤ c, and they differ by at most 1.
		if paper.RI(fl).Cmp(r) > 0 || paper.RI(c).Cmp(r) < 0 {
			return false
		}
		if c-fl > 1 {
			return false
		}
		if r.IsInt() && c != fl {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
