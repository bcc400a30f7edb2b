package skew_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"warp/internal/paper"
	"warp/internal/skew"
)

// randProg draws a random timed I/O program: a sequence of nops, I/O
// operations and (possibly nested) loops.  balanced forces equal input
// and output counts by appending padding pairs.
func randProg(r *rand.Rand, balanced bool) *skew.Prog {
	var gen func(depth int, budget *int) []paper.Item
	gen = func(depth int, budget *int) []paper.Item {
		var items []paper.Item
		n := 1 + r.Intn(5)
		for i := 0; i < n && *budget > 0; i++ {
			*budget--
			switch k := r.Intn(6); {
			case k == 0 && depth < 3:
				body := gen(depth+1, budget)
				if len(body) == 0 {
					body = []paper.Item{paper.Nop()}
				}
				items = append(items, paper.Rep(int64(1+r.Intn(4)), body...))
			case k <= 2:
				items = append(items, paper.Nop())
			case k <= 4:
				items = append(items, paper.In())
			default:
				items = append(items, paper.Out())
			}
		}
		return items
	}
	budget := 30
	items := gen(0, &budget)
	p := paper.Build(items...)
	if balanced {
		in, out := p.Count(skew.Input), p.Count(skew.Output)
		for ; in < out; in++ {
			items = append(items, paper.In())
		}
		for ; out < in; out++ {
			items = append(items, paper.Out())
		}
		p = paper.Build(items...)
	}
	return p
}

// TestQuickClosedFormMatchesEnumeration: for random programs, every
// statement's closed-form τ (recursive and symbolic) agrees with
// enumerated times over its whole domain, and the domains of the
// statements partition the ordinals.
func TestQuickClosedFormMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randProg(r, false)
		if err := p.Validate(); err != nil {
			t.Logf("invalid program: %v", err)
			return false
		}
		for _, kind := range []skew.Kind{skew.Input, skew.Output} {
			times := paper.Times(p, kind)
			claimed := make([]int, len(times))
			for _, v := range paper.Statements(p, kind) {
				tf := paper.NewTimingFunc(v)
				sym := tf.Symbolic()
				if tf.DomainSize() == 0 {
					return false
				}
				tf.DomainEach(func(n int64) bool {
					got, ok := tf.Eval(n)
					if !ok || n >= int64(len(times)) || got != times[n] {
						t.Logf("seed %d: %s(%d) τ(%d) mismatch", seed, kind, v.ID, n)
						claimed[0] = -1000000
						return false
					}
					if sgot, sok := sym.Eval(n); !sok || sgot != got {
						t.Logf("seed %d: symbolic mismatch at n=%d", seed, n)
						claimed[0] = -1000000
						return false
					}
					claimed[n]++
					return true
				})
			}
			for n, c := range claimed {
				if c != 1 {
					t.Logf("seed %d: %s ordinal %d claimed %d times", seed, kind, n, c)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickBoundSound: the pairwise bound is always ≥ the exact
// minimum skew, in both modes, on random balanced programs.
func TestQuickBoundSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randProg(r, true)
		if p.Count(skew.Input) == 0 {
			return true
		}
		exact, err := paper.MinSkewExact(p, p)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, mode := range []paper.BoundMode{paper.BoundPaper, paper.BoundTight} {
			b, _, err := paper.MinSkewBound(p, p, mode)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if b.Cmp(paper.RI(exact)) < 0 {
				t.Logf("seed %d mode %d: bound %s < exact %d", seed, mode, b, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickExactSkewIsTightAndSafe: the exact minimum skew passes the
// occupancy (underflow) check and skew−1 fails it.
func TestQuickExactSkewIsTightAndSafe(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randProg(r, true)
		if p.Count(skew.Input) == 0 {
			return true
		}
		exact, err := paper.MinSkewExact(p, p)
		if err != nil {
			return false
		}
		if _, err := paper.MaxOccupancy(p, p, exact); err != nil {
			t.Logf("seed %d: exact skew %d rejected: %v", seed, exact, err)
			return false
		}
		if _, err := paper.MaxOccupancy(p, p, exact-1); err == nil {
			t.Logf("seed %d: skew %d (one below exact) accepted", seed, exact-1)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickOccupancyMonotone: occupancy never decreases as skew grows,
// and is bounded by the total transfer count.
func TestQuickOccupancyMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randProg(r, true)
		total := p.Count(skew.Input)
		if total == 0 {
			return true
		}
		exact, err := paper.MinSkewExact(p, p)
		if err != nil {
			return false
		}
		prev := int64(-1)
		for s := exact; s < exact+10; s++ {
			occ, err := paper.MaxOccupancy(p, p, s)
			if err != nil {
				return false
			}
			if occ < prev || occ > total {
				return false
			}
			prev = occ
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickVectorsConsistency: the vector-derived domain size equals the
// actual execution count per statement, and τ is strictly increasing on
// the domain (times advance with ordinals).
func TestQuickVectorsConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randProg(r, false)
		for _, kind := range []skew.Kind{skew.Input, skew.Output} {
			var sum int64
			for _, v := range paper.Statements(p, kind) {
				tf := paper.NewTimingFunc(v)
				sum += tf.DomainSize()
				prevT := int64(-1)
				okAll := true
				tf.DomainEach(func(n int64) bool {
					tt, ok := tf.Eval(n)
					if !ok || tt <= prevT {
						okAll = false
						return false
					}
					prevT = tt
					return true
				})
				if !okAll {
					return false
				}
			}
			if sum != p.Count(kind) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
