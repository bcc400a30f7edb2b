package w2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Loop variables for affine testing: stable identities, numbered as
// the parser would number them.
var (
	loopI = &ForStmt{Var: "i", Pos: Pos{Line: 1, Col: 1}, ID: 0}
	loopJ = &ForStmt{Var: "j", Pos: Pos{Line: 2, Col: 1}, ID: 1}
	loopK = &ForStmt{Var: "k", Pos: Pos{Line: 3, Col: 1}, ID: 2}
)

// randAffine draws a small random affine form over i, j, k.
func randAffine(r *rand.Rand) Affine {
	a := AffConst(int64(r.Intn(21) - 10))
	for _, l := range []*ForStmt{loopI, loopJ, loopK} {
		if r.Intn(2) == 1 {
			a = a.Add(AffVar(l).Scale(int64(r.Intn(9) - 4)))
		}
	}
	return a
}

// randIdx draws index values for i, j, k (in ID order).
func randIdx(r *rand.Rand) []int64 {
	return []int64{int64(r.Intn(11) - 5), int64(r.Intn(11) - 5), int64(r.Intn(11) - 5)}
}

// TestAffineAlgebraProperties checks with testing/quick that the affine
// operations agree with pointwise evaluation.
func TestAffineAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}

	add := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randAffine(r), randAffine(r)
		idx := randIdx(r)
		return a.Add(b).Eval(idx) == a.Eval(idx)+b.Eval(idx)
	}
	if err := quick.Check(add, cfg); err != nil {
		t.Error("Add:", err)
	}

	sub := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randAffine(r), randAffine(r)
		idx := randIdx(r)
		return a.Sub(b).Eval(idx) == a.Eval(idx)-b.Eval(idx)
	}
	if err := quick.Check(sub, cfg); err != nil {
		t.Error("Sub:", err)
	}

	scale := func(seed int64, k int8) bool {
		r := rand.New(rand.NewSource(seed))
		a := randAffine(r)
		idx := randIdx(r)
		return a.Scale(int64(k)).Eval(idx) == int64(k)*a.Eval(idx)
	}
	if err := quick.Check(scale, cfg); err != nil {
		t.Error("Scale:", err)
	}

	subst := func(seed int64, v int8) bool {
		r := rand.New(rand.NewSource(seed))
		a := randAffine(r)
		idx := randIdx(r)
		idx[loopI.ID] = int64(v)
		return a.Subst(loopI, int64(v)).Eval(idx) == a.Eval(idx)
	}
	if err := quick.Check(subst, cfg); err != nil {
		t.Error("Subst:", err)
	}
}

// TestAffineRangeSound checks Range bounds every evaluation over the
// declared index rectangles.
func TestAffineRangeSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randAffine(r)
		bounds := [][2]int64{ // i, j, k in ID order
			{0, int64(r.Intn(5))},
			{int64(-r.Intn(3)), int64(r.Intn(3))},
			{1, int64(1 + r.Intn(4))},
		}
		min, max, ok := a.Range(bounds)
		if !ok {
			return false
		}
		// Exhaustive check over the small rectangle.
		for i := bounds[loopI.ID][0]; i <= bounds[loopI.ID][1]; i++ {
			for j := bounds[loopJ.ID][0]; j <= bounds[loopJ.ID][1]; j++ {
				for k := bounds[loopK.ID][0]; k <= bounds[loopK.ID][1]; k++ {
					v := a.Eval([]int64{i, j, k})
					if v < min || v > max {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAffineNormalization(t *testing.T) {
	a := AffVar(loopI).Add(AffVar(loopI)) // 2i
	if a.Coef(loopI) != 2 || len(a.Terms) != 1 {
		t.Errorf("2i not merged: %v", a)
	}
	z := AffVar(loopI).Sub(AffVar(loopI))
	if !z.IsConst() || z.Const != 0 {
		t.Errorf("i-i not zero: %v", z)
	}
}

func TestAffineEqual(t *testing.T) {
	a := AffVar(loopI).Scale(3).Add(AffConst(7))
	b := AffConst(7).Add(AffVar(loopI).Scale(3))
	if !a.Equal(b) {
		t.Errorf("%v != %v", a, b)
	}
	if a.Equal(a.Add(AffConst(1))) {
		t.Errorf("distinct forms reported equal")
	}
}

func TestAffineString(t *testing.T) {
	cases := []struct {
		a    Affine
		want string
	}{
		{AffConst(0), "0"},
		{AffConst(-3), "-3"},
		{AffVar(loopI), "i"},
		{AffVar(loopI).Scale(-1), "-i"},
		{AffVar(loopI).Scale(2).Add(AffVar(loopJ)).Add(AffConst(-5)), "2*i + j - 5"},
		{AffVar(loopJ).Sub(AffVar(loopI).Scale(4)), "-4*i + j"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestAffineArithmeticMatchesReference checks Add, Sub and Scale against
// a map from loop to coefficient on random forms over five loops, raw
// operands included (zero coefficients, a loop named twice, terms out of
// order), and that every result comes back normalized: sorted by loop
// position, no zero coefficient, no loop twice.  Add and Sub of two
// non-empty forms allocate once.
func TestAffineArithmeticMatchesReference(t *testing.T) {
	loops := []*ForStmt{
		loopI, loopJ, loopK,
		{Var: "p", Pos: Pos{Line: 2, Col: 9}},
		{Var: "q", Pos: Pos{Line: 7, Col: 3}},
	}
	r := rand.New(rand.NewSource(33))
	raw := func() Affine {
		a := Affine{Const: int64(r.Intn(41) - 20)}
		for n := r.Intn(7); n > 0; n-- {
			a.Terms = append(a.Terms, AffTerm{Var: loops[r.Intn(len(loops))], Coef: int64(r.Intn(7) - 3)})
		}
		return a
	}
	ref := func(a Affine, k int64, into map[*ForStmt]int64) {
		for _, t := range a.Terms {
			into[t.Var] += k * t.Coef
		}
	}
	check := func(op string, got Affine, wantConst int64, want map[*ForStmt]int64) {
		t.Helper()
		for v, c := range want {
			if c == 0 {
				delete(want, v)
			}
		}
		ok := got.Const == wantConst && len(got.Terms) == len(want)
		for i, term := range got.Terms {
			if term.Coef == 0 || want[term.Var] != term.Coef {
				ok = false
			}
			if i > 0 {
				p, q := got.Terms[i-1].Var.Pos, term.Var.Pos
				if p.Line > q.Line || p.Line == q.Line && p.Col >= q.Col {
					ok = false
				}
			}
		}
		if !ok {
			t.Fatalf("%s = %v (%+v), want const %d and terms %v", op, got, got.Terms, wantConst, want)
		}
	}
	for n := 0; n < 2000; n++ {
		a, b := raw(), raw()
		switch r.Intn(3) {
		case 1: // b cancels part of a
			b.Terms = append(b.Terms, a.Terms[:len(a.Terms)/2]...)
		case 2: // b undoes part of a under addition
			for _, term := range a.Terms[len(a.Terms)/2:] {
				b.Terms = append(b.Terms, AffTerm{Var: term.Var, Coef: -term.Coef})
			}
		}
		sum, diff := map[*ForStmt]int64{}, map[*ForStmt]int64{}
		ref(a, 1, sum)
		ref(b, 1, sum)
		ref(a, 1, diff)
		ref(b, -1, diff)
		check("Add", a.Add(b), a.Const+b.Const, sum)
		check("Sub", a.Sub(b), a.Const-b.Const, diff)
		k := int64(r.Intn(9) - 4)
		scaled := map[*ForStmt]int64{}
		ref(a, k, scaled)
		check("Scale", a.Scale(k), k*a.Const, scaled)
	}

	a := AffVar(loopI).Scale(3).Add(AffVar(loopK)).Add(AffConst(4))
	b := AffVar(loopJ).Add(AffVar(loopK).Scale(-2))
	if n := testing.AllocsPerRun(100, func() { a.Add(b) }); n > 1 {
		t.Errorf("Add made %.0f allocations, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.Sub(b) }); n > 1 {
		t.Errorf("Sub made %.0f allocations, want at most 1", n)
	}
}

// TestConstDiffMatchesSub checks ConstDiff against the normalized Sub it
// stands in for on normalized forms, half of them a constant apart, and
// that it allocates nothing.
func TestConstDiffMatchesSub(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for n := 0; n < 2000; n++ {
		a, b := randAffine(r), randAffine(r)
		if r.Intn(2) == 0 {
			b = a.Add(AffConst(int64(r.Intn(5) - 2)))
		}
		d, ok := a.ConstDiff(b)
		s := a.Sub(b)
		if ok != s.IsConst() || ok && d != s.Const {
			t.Fatalf("(%v).ConstDiff(%v) = %d, %v; Sub gives %v", a, b, d, ok, s)
		}
	}
	a := AffVar(loopI).Scale(3).Add(AffVar(loopK)).Add(AffConst(4))
	b := a.Add(AffConst(2))
	if n := testing.AllocsPerRun(100, func() { a.ConstDiff(b) }); n != 0 {
		t.Errorf("ConstDiff made %.0f allocations, want none", n)
	}
}

// TestArenaArithmeticMatchesHeap checks that the arena forms of AffVar,
// Add, Sub and Scale that sema uses give the results of the exported
// ones, and that a result's terms cannot be appended into the next
// result's window.
func TestArenaArithmeticMatchesHeap(t *testing.T) {
	var arena slab[AffTerm]
	r := rand.New(rand.NewSource(39))
	for n := 0; n < 2000; n++ {
		a, b := randAffine(r), randAffine(r)
		k := int64(r.Intn(9) - 4)
		for _, c := range []struct {
			op        string
			got, want Affine
		}{
			{"var", affVar(loopJ, &arena), AffVar(loopJ)},
			{"add", a.add(b, &arena), a.Add(b)},
			{"sub", a.sub(b, &arena), a.Sub(b)},
			{"scale", a.scale(k, &arena), a.Scale(k)},
		} {
			if !c.got.Equal(c.want) || (c.got.Terms == nil) != (c.want.Terms == nil) {
				t.Fatalf("%s: arena gives %v, heap %v", c.op, c.got, c.want)
			}
		}
	}
	x := affVar(loopI, &arena)
	y := affVar(loopJ, &arena)
	_ = append(x.Terms, AffTerm{Var: loopK, Coef: 5})
	if y.Terms[0].Var != loopJ {
		t.Error("appending to one arena form overwrote the next")
	}
}
