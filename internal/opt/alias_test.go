package opt

import (
	"math/rand"
	"testing"

	"warp/internal/w2"
)

// mayAliasBySub is mayAlias as it was written before it stopped building
// the difference: the reference the closed form is checked against.
func mayAliasBySub(a, b w2.Affine) bool {
	d := a.Sub(b)
	if !d.IsConst() || d.Const == 0 {
		return true
	}
	// Constant nonzero difference: disjoint only if the addresses are
	// themselves loop invariant.
	return len(a.Terms) != 0 || len(b.Terms) != 0
}

func TestMayAlias(t *testing.T) {
	i := &w2.ForStmt{Var: "i", Pos: w2.Pos{Line: 1}}
	j := &w2.ForStmt{Var: "j", Pos: w2.Pos{Line: 2}}
	aff := func(c int64, terms ...w2.AffTerm) w2.Affine {
		a := w2.AffConst(c)
		for _, t := range terms {
			a = a.Add(w2.AffVar(t.Var).Scale(t.Coef))
		}
		return a
	}
	for _, tc := range []struct {
		name string
		a, b w2.Affine
		want bool
	}{
		{"same constant", aff(3), aff(3), true},
		{"distinct constants", aff(3), aff(4), false},
		{"a[i] and a[i]", aff(0, w2.AffTerm{Var: i, Coef: 1}), aff(0, w2.AffTerm{Var: i, Coef: 1}), true},
		{"a[i] and a[i+1]: one iteration apart", aff(0, w2.AffTerm{Var: i, Coef: 1}), aff(1, w2.AffTerm{Var: i, Coef: 1}), true},
		{"a[2i] and a[2i+1]: conservative", aff(0, w2.AffTerm{Var: i, Coef: 2}), aff(1, w2.AffTerm{Var: i, Coef: 2}), true},
		{"a[i] and a[j]", aff(0, w2.AffTerm{Var: i, Coef: 1}), aff(0, w2.AffTerm{Var: j, Coef: 1}), true},
		{"a[i] and a[5]", aff(0, w2.AffTerm{Var: i, Coef: 1}), aff(5), true},
		{"a[5] and a[i]", aff(5), aff(0, w2.AffTerm{Var: i, Coef: 1}), true},
		{"a[i+j] and a[i+j+7]", aff(0, w2.AffTerm{Var: i, Coef: 1}, w2.AffTerm{Var: j, Coef: 1}), aff(7, w2.AffTerm{Var: i, Coef: 1}, w2.AffTerm{Var: j, Coef: 1}), true},
	} {
		if got := mayAlias(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: mayAlias = %v, want %v", tc.name, got, tc.want)
		}
		if got := mayAliasBySub(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: the Sub-based reference says %v, want %v", tc.name, got, tc.want)
		}
	}

	// 1000 random pairs over three loops, small constants and
	// coefficients so that equal, cancelling and invariant forms are all
	// common.
	loops := []*w2.ForStmt{i, j, {Var: "k", Pos: w2.Pos{Line: 3}}}
	rng := rand.New(rand.NewSource(24))
	draw := func() w2.Affine {
		a := w2.AffConst(int64(rng.Intn(4)))
		for _, l := range loops {
			if rng.Intn(3) == 0 {
				a = a.Add(w2.AffVar(l).Scale(int64(rng.Intn(5) - 2)))
			}
		}
		return a
	}
	aliased := 0
	for n := 0; n < 1000; n++ {
		a, b := draw(), draw()
		got, want := mayAlias(a, b), mayAliasBySub(a, b)
		if got != want {
			t.Fatalf("mayAlias(%s, %s) = %v, the Sub-based reference says %v", a, b, got, want)
		}
		if got {
			aliased++
		}
	}
	if aliased < 100 || aliased > 900 {
		t.Errorf("%d of 1000 random pairs may alias: the draw no longer covers both answers", aliased)
	}
}
