package skew_test

import (
	"testing"

	"warp/internal/paper"
	"warp/internal/skew"
)

// Note on Figure 6-2: the paper's listing shows three "input" lines,
// but the accompanying Table 6-1 (two matched pairs, minimum skew 3)
// corresponds to two inputs at cycles 1 and 2 and outputs at cycles 0
// and 5, which is the program Fig62 builds.

// TestTable6_1 reproduces Table 6-1: the input/output timing functions
// and the minimum skew of 3 for the straight-line program of Figure 6-2.
func TestTable6_1(t *testing.T) {
	p := paper.Fig62()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	to := paper.Times(p, skew.Output)
	ti := paper.Times(p, skew.Input)
	wantO := []int64{0, 5}
	wantI := []int64{1, 2}
	if len(to) != 2 || len(ti) != 2 {
		t.Fatalf("got %d outputs, %d inputs; want 2 and 2", len(to), len(ti))
	}
	for n := range wantO {
		if to[n] != wantO[n] {
			t.Errorf("τ_O(%d) = %d, want %d", n, to[n], wantO[n])
		}
		if ti[n] != wantI[n] {
			t.Errorf("τ_I(%d) = %d, want %d", n, ti[n], wantI[n])
		}
	}
	skew, err := paper.MinSkewExact(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if skew != 3 {
		t.Errorf("minimum skew = %d, want 3 (Table 6-1)", skew)
	}
}

// TestFig6_3 verifies Figure 6-3: with the minimum skew of 3, no input
// of the second cell precedes the matching output of the first cell,
// and the skew is tight (skew 2 underflows).
func TestFig6_3(t *testing.T) {
	p := paper.Fig62()
	if _, err := paper.MaxOccupancy(p, p, 3); err != nil {
		t.Errorf("skew 3 must be safe: %v", err)
	}
	if _, err := paper.MaxOccupancy(p, p, 2); err == nil {
		t.Errorf("skew 2 must underflow, but was accepted")
	}
	// Figure 6-3's trace: cell 2's input_0 at cycle 4, input_1 at 5.
	ti := paper.Times(p, skew.Input)
	if got := ti[0] + 3; got != 4 {
		t.Errorf("cell 2 input_0 at cycle %d, want 4", got)
	}
	if got := ti[1] + 3; got != 5 {
		t.Errorf("cell 2 input_1 at cycle %d, want 5", got)
	}
}

// TestTable6_2 reproduces Table 6-2: the per-ordinal input and output
// times of the Figure 6-4 program and the minimum skew of 18.
func TestTable6_2(t *testing.T) {
	p := paper.Fig64()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	wantO := []int64{18, 19, 20, 21, 24, 25, 26, 29, 30, 31}
	wantI := []int64{1, 2, 4, 5, 7, 8, 10, 11, 13, 14}
	to := paper.Times(p, skew.Output)
	ti := paper.Times(p, skew.Input)
	if len(to) != 10 || len(ti) != 10 {
		t.Fatalf("got %d outputs, %d inputs; want 10 and 10", len(to), len(ti))
	}
	for n := range wantO {
		if to[n] != wantO[n] {
			t.Errorf("τ_O(%d) = %d, want %d", n, to[n], wantO[n])
		}
		if ti[n] != wantI[n] {
			t.Errorf("τ_I(%d) = %d, want %d", n, ti[n], wantI[n])
		}
	}
	skew, err := paper.MinSkewExact(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if skew != 18 {
		t.Errorf("minimum skew = %d, want 18 (Table 6-2)", skew)
	}
}

// Note: the paper's Table 6-2 lists τ_I values 1,2,4,5,7(printed "1"),
// 8,10,11,13,14 — the printed "1" for ordinal 4 is a typo (the loop
// advances 3 cycles per iteration), and its τ_O−τ_I column confirms
// 24−7=17.

// TestTable6_3 reproduces Table 6-3: the five characteristic vectors of
// every I/O statement of the Figure 6-4 program.
func TestTable6_3(t *testing.T) {
	p := paper.Fig64()
	ins := paper.Statements(p, skew.Input)
	outs := paper.Statements(p, skew.Output)
	if len(ins) != 2 || len(outs) != 5 {
		t.Fatalf("got %d input, %d output statements; want 2 and 5", len(ins), len(outs))
	}
	type vec struct{ R, N, S, L, T [2]int64 }
	wants := map[string]vec{
		"I0": {R: [2]int64{5, 1}, N: [2]int64{2, 1}, S: [2]int64{0, 0}, L: [2]int64{3, 1}, T: [2]int64{1, 0}},
		"I1": {R: [2]int64{5, 1}, N: [2]int64{2, 1}, S: [2]int64{0, 1}, L: [2]int64{3, 1}, T: [2]int64{1, 1}},
		"O0": {R: [2]int64{2, 1}, N: [2]int64{2, 1}, S: [2]int64{0, 0}, L: [2]int64{2, 1}, T: [2]int64{18, 0}},
		"O1": {R: [2]int64{2, 1}, N: [2]int64{2, 1}, S: [2]int64{0, 1}, L: [2]int64{2, 1}, T: [2]int64{18, 1}},
		"O2": {R: [2]int64{2, 1}, N: [2]int64{3, 1}, S: [2]int64{4, 0}, L: [2]int64{5, 1}, T: [2]int64{24, 0}},
		"O3": {R: [2]int64{2, 1}, N: [2]int64{3, 1}, S: [2]int64{4, 1}, L: [2]int64{5, 1}, T: [2]int64{24, 1}},
		"O4": {R: [2]int64{2, 1}, N: [2]int64{3, 1}, S: [2]int64{4, 2}, L: [2]int64{5, 1}, T: [2]int64{24, 2}},
	}
	check := func(name string, v *paper.Vectors) {
		w := wants[name]
		if v.Depth() != 2 {
			t.Fatalf("%s: depth %d, want 2", name, v.Depth())
		}
		got := vec{
			R: [2]int64{v.R[0], v.R[1]}, N: [2]int64{v.N[0], v.N[1]},
			S: [2]int64{v.S[0], v.S[1]}, L: [2]int64{v.L[0], v.L[1]},
			T: [2]int64{v.T[0], v.T[1]},
		}
		if got != w {
			t.Errorf("%s vectors = %+v, want %+v", name, got, w)
		}
	}
	check("I0", ins[0])
	check("I1", ins[1])
	for i, o := range outs {
		check([]string{"O0", "O1", "O2", "O3", "O4"}[i], o)
	}
}

// TestTable6_4 reproduces Table 6-4: the symbolic timing functions and
// their domain constraints.
func TestTable6_4(t *testing.T) {
	p := paper.Fig64()
	ins := paper.Statements(p, skew.Input)
	outs := paper.Statements(p, skew.Output)

	cases := []struct {
		v          *paper.Vectors
		wantFn     string
		wantDomain string
	}{
		{ins[0], "1 + 3/2 n - 1/2 n mod 2", "0 <= n <= 8 and n mod 2 = 0"},
		{ins[1], "1 + 3/2 n - 1/2 n mod 2", "1 <= n <= 9 and n mod 2 = 1"},
		{outs[0], "18 + n", "0 <= n <= 2 and n mod 2 = 0"},
		{outs[1], "18 + n", "1 <= n <= 3 and n mod 2 = 1"},
		{outs[2], "52/3 + 5/3 n - 2/3 (n-4) mod 3", "4 <= n <= 7 and (n-4) mod 3 = 0"},
		{outs[3], "52/3 + 5/3 n - 2/3 (n-4) mod 3", "5 <= n <= 8 and (n-4) mod 3 = 1"},
		{outs[4], "52/3 + 5/3 n - 2/3 (n-4) mod 3", "6 <= n <= 9 and (n-4) mod 3 = 2"},
	}
	for _, c := range cases {
		sym := paper.NewTimingFunc(c.v).Symbolic()
		if got := sym.String(); got != c.wantFn {
			t.Errorf("%s(%d): τ(n) = %q, want %q", c.v.Kind, c.v.ID, got, c.wantFn)
		}
		if got := sym.DomainString(); got != c.wantDomain {
			t.Errorf("%s(%d): domain = %q, want %q", c.v.Kind, c.v.ID, got, c.wantDomain)
		}
	}
	// The paper prints O(0)/O(1) as "18 + n + 0 n mod 2": the mod term
	// has coefficient zero (l/n identical at both levels), so our
	// renderer drops it.
}

// TestClosedFormMatchesEnumeration checks that the closed-form τ agrees
// with enumeration for every statement of both paper programs, on its
// whole domain — and that ordinals outside the domain are rejected.
func TestClosedFormMatchesEnumeration(t *testing.T) {
	for _, p := range []*skew.Prog{paper.Fig62(), paper.Fig64()} {
		for _, kind := range []skew.Kind{skew.Input, skew.Output} {
			times := paper.Times(p, kind)
			covered := make([]bool, len(times))
			for _, v := range paper.Statements(p, kind) {
				tf := paper.NewTimingFunc(v)
				sym := tf.Symbolic()
				for n := int64(0); n < int64(len(times)); n++ {
					got, ok := tf.Eval(n)
					gotSym, okSym := sym.Eval(n)
					if ok != okSym || (ok && got != gotSym) {
						t.Fatalf("%s(%d) n=%d: Eval=(%d,%v) paper.Symbolic=(%d,%v)",
							kind, v.ID, n, got, ok, gotSym, okSym)
					}
					if !ok {
						continue
					}
					if covered[n] {
						t.Errorf("%s ordinal %d claimed by two statements", kind, n)
					}
					covered[n] = true
					if got != times[n] {
						t.Errorf("%s(%d): τ(%d) = %d, enumeration says %d", kind, v.ID, n, got, times[n])
					}
				}
			}
			for n, c := range covered {
				if !c {
					t.Errorf("%s ordinal %d not covered by any timing function", kind, n)
				}
			}
		}
	}
}

// TestOverlapExamples reproduces the three §6.2.1 examples: the
// disjoint pair I(0)/O(1), the completely overlapped pair I(0)/O(0)
// with bound 17, and the partially overlapped pair I(0)/O(4) with
// bound 17+2/3.
func TestOverlapExamples(t *testing.T) {
	p := paper.Fig64()
	ins := paper.Statements(p, skew.Input)
	outs := paper.Statements(p, skew.Output)
	i0 := ins[0]

	if pb := paper.AnalyzePair(outs[1], i0, paper.BoundPaper); pb.Overlap != paper.Disjoint {
		t.Errorf("O(1)×I(0): overlap = %s, want disjoint", pb.Overlap)
	}

	pb := paper.AnalyzePair(outs[0], i0, paper.BoundPaper)
	if pb.Overlap != paper.Complete {
		t.Errorf("O(0)×I(0): overlap = %s, want completely overlapped", pb.Overlap)
	}
	if pb.Bound.Cmp(paper.RI(17)) != 0 {
		t.Errorf("O(0)×I(0): bound = %s, want 17", pb.Bound)
	}

	pb = paper.AnalyzePair(outs[4], i0, paper.BoundPaper)
	if pb.Overlap != paper.Partial {
		t.Errorf("O(4)×I(0): overlap = %s, want partially overlapped", pb.Overlap)
	}
	if want := paper.R(53, 3); pb.Bound.Cmp(want) != 0 {
		t.Errorf("O(4)×I(0): bound = %s, want %s (= 17+2/3)", pb.Bound, want)
	}
}

// TestMinSkewBoundFig64 checks the pairwise-bound method on the Figure
// 6-4 program: the bound must be ≥ the exact minimum skew of 18 and
// its ceiling must be safe in the occupancy check.
func TestMinSkewBoundFig64(t *testing.T) {
	p := paper.Fig64()
	exact, err := paper.MinSkewExact(p, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []paper.BoundMode{paper.BoundPaper, paper.BoundTight} {
		b, pairs, err := paper.MinSkewBound(p, p, mode)
		if err != nil {
			t.Fatal(err)
		}
		if b.Cmp(paper.RI(exact)) < 0 {
			t.Errorf("mode %d: bound %s < exact %d", mode, b, exact)
		}
		if len(pairs) == 0 {
			t.Errorf("mode %d: no pairs analyzed", mode)
		}
		if _, err := paper.MaxOccupancy(p, p, b.Ceil()); err != nil {
			t.Errorf("mode %d: bound %s rejected by occupancy check: %v", mode, b, err)
		}
	}
	// The paper-mode bound is dominated by the O(4)×I(1) pair at
	// 49/3 + 9/6 + 1/2 = 55/3 ≈ 18.33, one cycle above the exact
	// minimum; the tight mode pins O's mod terms too and recovers 18
	// exactly (via the O(2)×I(1) pair).
	bPaper, _, err := paper.MinSkewBound(p, p, paper.BoundPaper)
	if err != nil {
		t.Fatal(err)
	}
	if want := paper.R(55, 3); bPaper.Cmp(want) != 0 {
		t.Errorf("paper-mode bound = %s, want %s", bPaper, want)
	}
	bTight, _, err := paper.MinSkewBound(p, p, paper.BoundTight)
	if err != nil {
		t.Fatal(err)
	}
	if bTight.Cmp(paper.RI(18)) != 0 {
		t.Errorf("tight-mode bound = %s, want 18", bTight)
	}
}

// TestFig3_1 reproduces Figure 3-1's comparison: a 4-step stage whose
// step 4 needs the neighbour's step-4 result has per-cell latency 4
// under SIMD but 1 under the skewed model.
func TestFig3_1(t *testing.T) {
	deps := []paper.StageDep{{Producer: 3, Consumer: 3}}
	if got := paper.SkewedLatency(4, deps); got != 1 {
		t.Errorf("skewed latency = %d, want 1", got)
	}
	if got := paper.SIMDLatency(4, deps); got != 4 {
		t.Errorf("SIMD latency = %d, want 4", got)
	}
	// Through 3 cells (as drawn): skewed 2+4=6 cycles to finish set 0 on
	// cell 3; SIMD 12.
	if got := paper.PipelineLatency(3, 1, 4); got != 6 {
		t.Errorf("skewed pipeline latency = %d, want 6", got)
	}
	if got := paper.PipelineLatency(3, 4, 4); got != 12 {
		t.Errorf("SIMD pipeline latency = %d, want 12", got)
	}
}

// TestMaxOccupancyFig64 sanity-checks occupancy: with the minimum skew
// every word waits in the queue between its send and its receive; the
// peak must be positive and no larger than the total transfer count.
func TestMaxOccupancyFig64(t *testing.T) {
	p := paper.Fig64()
	occ, err := paper.MaxOccupancy(p, p, 18)
	if err != nil {
		t.Fatal(err)
	}
	if occ < 1 || occ > 10 {
		t.Errorf("occupancy = %d, want within [1,10]", occ)
	}
	// Larger skew can only increase occupancy.
	occ2, err := paper.MaxOccupancy(p, p, 30)
	if err != nil {
		t.Fatal(err)
	}
	if occ2 < occ {
		t.Errorf("occupancy decreased with larger skew: %d -> %d", occ, occ2)
	}
}
