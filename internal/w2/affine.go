package w2

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Affine represents an integer expression that is affine in the loop
// indices of the enclosing loop nest: Const + Σ Coef·var.
//
// Every address in a W2 cell program must reduce to this form: the Warp
// cells have no integer arithmetic, so all addresses are produced by the
// interface unit, which requires them to be data independent (§6.1).
// The affine form is also the input to the IU code generator's strength
// reduction (§6.3.2).
type Affine struct {
	Const int64
	Terms []AffTerm // sorted by Var, no zero coefficients, no duplicates
}

// AffTerm is one linear term of an affine expression.
type AffTerm struct {
	Var  *ForStmt // the loop whose index this term scales
	Coef int64
}

// AffConst returns the affine expression for a constant.
func AffConst(c int64) Affine { return Affine{Const: c} }

// AffVar returns the affine expression for a loop index.
func AffVar(loop *ForStmt) Affine { return affVar(loop, nil) }

func affVar(loop *ForStmt, r *slab[AffTerm]) Affine {
	return Affine{Terms: append(newTerms(r, 1), AffTerm{Var: loop, Coef: 1})}
}

// newTerms returns an empty term list with room for n terms, from r
// (sema builds every form in one slab) or, when r is nil, the heap.
func newTerms(r *slab[AffTerm], n int) []AffTerm {
	if r == nil {
		return make([]AffTerm, 0, n)
	}
	return r.take(n)[:0]
}

// normalize sorts terms (by loop statement position for determinism) and
// removes zero coefficients, in place.
func (a Affine) normalize() Affine {
	slices.SortStableFunc(a.Terms, func(x, y AffTerm) int {
		px, py := x.Var.Pos, y.Var.Pos
		if px.Line != py.Line {
			return px.Line - py.Line
		}
		return px.Col - py.Col
	})
	out := a.Terms[:0]
	for _, t := range a.Terms {
		if len(out) > 0 && out[len(out)-1].Var == t.Var {
			out[len(out)-1].Coef += t.Coef
		} else {
			out = append(out, t)
		}
	}
	terms := out[:0]
	for _, t := range out {
		if t.Coef != 0 {
			terms = append(terms, t)
		}
	}
	a.Terms = terms
	return a
}

// Add returns a+b, in one allocation.
func (a Affine) Add(b Affine) Affine { return a.add(b, nil) }

func (a Affine) add(b Affine, r *slab[AffTerm]) Affine {
	terms := newTerms(r, len(a.Terms)+len(b.Terms))
	terms = append(append(terms, a.Terms...), b.Terms...)
	return Affine{Const: a.Const + b.Const, Terms: terms}.normalize()
}

// Sub returns a−b, in one allocation.
func (a Affine) Sub(b Affine) Affine { return a.sub(b, nil) }

func (a Affine) sub(b Affine, r *slab[AffTerm]) Affine {
	terms := append(newTerms(r, len(a.Terms)+len(b.Terms)), a.Terms...)
	for _, t := range b.Terms {
		terms = append(terms, AffTerm{Var: t.Var, Coef: -t.Coef})
	}
	return Affine{Const: a.Const - b.Const, Terms: terms}.normalize()
}

// Scale returns k·a.
func (a Affine) Scale(k int64) Affine { return a.scale(k, nil) }

func (a Affine) scale(k int64, r *slab[AffTerm]) Affine {
	s := Affine{Const: a.Const * k, Terms: append(newTerms(r, len(a.Terms)), a.Terms...)}
	for i := range s.Terms {
		s.Terms[i].Coef *= k
	}
	return s.normalize()
}

// ConstDiff returns a−b and true when that difference is a constant,
// without building it.  For normalized forms over loops at distinct
// positions (a parsed module's), that is when their terms are equal.
func (a Affine) ConstDiff(b Affine) (int64, bool) {
	if len(a.Terms) != len(b.Terms) {
		return 0, false
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] {
			return 0, false
		}
	}
	return a.Const - b.Const, true
}

// IsConst reports whether a has no loop-variant terms.
func (a Affine) IsConst() bool { return len(a.Terms) == 0 }

// Coef returns the coefficient of the given loop's index (0 if absent).
func (a Affine) Coef(loop *ForStmt) int64 {
	for _, t := range a.Terms {
		if t.Var == loop {
			return t.Coef
		}
	}
	return 0
}

// Equal reports structural equality of two normalized affine forms.
func (a Affine) Equal(b Affine) bool {
	if a.Const != b.Const || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] {
			return false
		}
	}
	return true
}

// Range returns the minimum and maximum values a can take given that
// each loop index v ranges over bounds[v.ID] = [lo(v), hi(v)], and
// whether every product and sum on the way to them fits an int64.
func (a Affine) Range(bounds [][2]int64) (min, max int64, ok bool) {
	min, max, ok = a.Const, a.Const, true
	for _, t := range a.Terms {
		if t.Var.ID >= len(bounds) {
			// Unknown loop: treat conservatively as [0,0]; callers
			// always supply bounds for loops in scope.
			continue
		}
		b := bounds[t.Var.ID]
		lo, okLo := mulOK(t.Coef, b[0])
		hi, okHi := mulOK(t.Coef, b[1])
		if lo > hi {
			lo, hi = hi, lo
		}
		var okMin, okMax bool
		min, okMin = addOK(min, lo)
		max, okMax = addOK(max, hi)
		ok = ok && okLo && okHi && okMin && okMax
	}
	return min, max, ok
}

// mulOK returns a·b and whether it fits an int64.
func mulOK(a, b int64) (int64, bool) {
	c := a * b
	return c, a == 0 || c/a == b && !(a == -1 && b == math.MinInt64)
}

// addOK returns a+b and whether it fits an int64.
func addOK(a, b int64) (int64, bool) {
	c := a + b
	return c, (a^c)&(b^c) >= 0
}

// Subst replaces the given loop's index with a concrete value, folding
// it into the constant term.
func (a Affine) Subst(loop *ForStmt, val int64) Affine {
	r := Affine{Const: a.Const}
	for _, t := range a.Terms {
		if t.Var == loop {
			r.Const += t.Coef * val
		} else {
			r.Terms = append(r.Terms, t)
		}
	}
	return r
}

// Eval evaluates the affine form for concrete index values: loop v's
// index is idx[v.ID].
func (a Affine) Eval(idx []int64) int64 {
	v := a.Const
	for _, t := range a.Terms {
		v += t.Coef * idx[t.Var.ID]
	}
	return v
}

// String renders the affine form using loop variable names.
func (a Affine) String() string {
	var sb strings.Builder
	first := true
	for _, t := range a.Terms {
		if !first {
			if t.Coef >= 0 {
				sb.WriteString(" + ")
			} else {
				sb.WriteString(" - ")
			}
		} else if t.Coef < 0 {
			sb.WriteString("-")
		}
		first = false
		c := t.Coef
		if c < 0 {
			c = -c
		}
		if c != 1 {
			fmt.Fprintf(&sb, "%d*", c)
		}
		sb.WriteString(t.Var.Var)
	}
	switch {
	case first:
		fmt.Fprintf(&sb, "%d", a.Const)
	case a.Const > 0:
		fmt.Fprintf(&sb, " + %d", a.Const)
	case a.Const < 0:
		fmt.Fprintf(&sb, " - %d", -a.Const)
	}
	return sb.String()
}
