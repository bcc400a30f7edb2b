package paper

import (
	"fmt"
	"strings"

	"warp/internal/skew"
)

// TimingFunc is the closed-form timing function τ of one I/O statement
// (§6.2.1): it maps the ordinal number n of an operation on the channel
// to the clock cycle the operation executes, and is applicable only on a
// domain of ordinals determined by the statement's loop structure.
type TimingFunc struct {
	V *Vectors
}

// NewTimingFunc builds the timing function for a statement's vectors.
func NewTimingFunc(v *Vectors) *TimingFunc { return &TimingFunc{V: v} }

// sPlus returns Σ_{m≥j} s_m for 0-based level j.
func (tf *TimingFunc) sPlus(j int) int64 {
	var sum int64
	for m := j; m < len(tf.V.S); m++ {
		sum += tf.V.S[m]
	}
	return sum
}

// Eval returns τ(n) and whether n lies in the function's domain.
//
//	τ(n) = Σ_j ( t_j + ⌊(g(j)−s_j)/n_j⌋·l_j ),  g(1)=n,
//	g(j+1) = (g(j)−s_j) mod n_j.
//
// The domain test recovers the per-level iteration number
// i_j = ⌊(g(j)−s_j)/n_j⌋ and requires 0 ≤ i_j < r_j; the innermost
// pseudo-loop level then forces an exact match, so the test accepts
// precisely the ordinals the statement executes.  (The paper's §6.2.1
// formulation bounds g(j) by (r_j−1)·n_j + Σ_{m≥j} s_m, which is
// equivalent for the two-level nests of its examples but too tight for
// deeper nests, where a later sub-iteration raises g(j) above that
// bound.)
func (tf *TimingFunc) Eval(n int64) (int64, bool) {
	v := tf.V
	g := n
	var t int64
	for j := 0; j < v.Depth(); j++ {
		d := g - v.S[j]
		if d < 0 {
			return 0, false
		}
		i := d / v.N[j]
		if i >= v.R[j] {
			return 0, false
		}
		t += v.T[j] + i*v.L[j]
		g = d % v.N[j]
	}
	return t, true
}

// DomainMin returns the smallest ordinal in the domain.
func (tf *TimingFunc) DomainMin() int64 { return tf.sPlus(0) }

// DomainMax returns the largest ordinal in the domain.
func (tf *TimingFunc) DomainMax() int64 {
	v := tf.V
	var n int64
	for j := 0; j < v.Depth(); j++ {
		n += (v.R[j] - 1) * v.N[j]
	}
	return n + tf.sPlus(0)
}

// DomainSize returns the number of ordinals in the domain (the number
// of dynamic executions of the statement).
func (tf *TimingFunc) DomainSize() int64 {
	size := int64(1)
	for _, r := range tf.V.R {
		size *= r
	}
	return size
}

// DomainEach enumerates the ordinals of the domain in increasing order.
func (tf *TimingFunc) DomainEach(f func(n int64) bool) {
	v := tf.V
	var rec func(j int, base int64) bool
	rec = func(j int, base int64) bool {
		if j == v.Depth() {
			return f(base)
		}
		for i := int64(0); i < v.R[j]; i++ {
			if !rec(j+1, base+v.S[j]+i*v.N[j]) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}

// Contains reports whether ordinal n is in the domain.
func (tf *TimingFunc) Contains(n int64) bool {
	_, ok := tf.Eval(n)
	return ok
}

// ModTerm is one "(…) mod n_j" term of the symbolic form of τ.
type ModTerm struct {
	Coef Rat
	// Level is the 1-based loop level j whose g(j) this term denotes;
	// the chain uses S[0..j−2] and N[0..j−2] of the owning vectors.
	Level int
	// Pinned reports that the owning statement's domain forces g(j) to
	// the single value PinVal (true when every loop from level j inward
	// runs exactly once, which always holds for the innermost
	// pseudo-loop level).
	Pinned bool
	PinVal int64
	// MaxVal is the largest value g(j) can take: n_{j−1} − 1.
	MaxVal int64

	v *Vectors
}

// chainString renders g(j): ((n − s_1) mod n_1 − s_2) mod n_2 ...
func (m ModTerm) chainString() string {
	s := "n"
	for lvl := 1; lvl < m.Level; lvl++ {
		sub := m.v.S[lvl-1]
		if sub != 0 {
			s = fmt.Sprintf("(%s-%d)", s, sub)
		}
		s = fmt.Sprintf("%s mod %d", s, m.v.N[lvl-1])
		if lvl < m.Level-1 {
			s = "(" + s + ")"
		}
	}
	return s
}

// Symbolic is the expanded closed form of τ:
//
//	τ(n) = Const + CoefN·n + Σ ModTerms
//
// together with the statement's domain.  It matches the presentation of
// Table 6-4 in the paper, e.g. 1 + 3/2·n − 1/2·(n mod 2) for I(0) of
// Figure 6-4.
type Symbolic struct {
	Const Rat
	CoefN Rat
	Mods  []ModTerm
	TF    *TimingFunc
}

// Symbolic expands the timing function.
//
//	τ(n) = Σ t_j − Σ (l_j/n_j)·s_j + (l_1/n_1)·n
//	       + Σ_{j≥2} (l_j/n_j − l_{j−1}/n_{j−1})·g(j)
//	       − (l_k/n_k)·g(k+1)
//
// The final term vanishes in vectors produced by Statements because the
// innermost pseudo-loop has n_k = 1, making g(k+1) ≡ 0.
func (tf *TimingFunc) Symbolic() *Symbolic {
	v := tf.V
	k := v.Depth()
	sym := &Symbolic{TF: tf}
	c := RI(0)
	for j := 0; j < k; j++ {
		c = c.Add(RI(v.T[j]))
		c = c.Sub(R(v.L[j], v.N[j]).MulI(v.S[j]))
	}
	sym.Const = c
	sym.CoefN = R(v.L[0], v.N[0])
	for j := 2; j <= k; j++ {
		coef := R(v.L[j-1], v.N[j-1]).Sub(R(v.L[j-2], v.N[j-2]))
		if coef.Sign() == 0 {
			continue
		}
		if v.N[j-2] == 1 {
			continue // g(j) = (…) mod 1 ≡ 0: the term vanishes
		}
		sym.Mods = append(sym.Mods, tf.modTerm(coef, j))
	}
	if v.N[k-1] != 1 {
		// g(k+1) term; cannot arise from Statements but kept for
		// hand-built vectors.
		sym.Mods = append(sym.Mods, tf.modTerm(R(v.L[k-1], v.N[k-1]).Neg(), k+1))
	}
	return sym
}

func (tf *TimingFunc) modTerm(coef Rat, level int) ModTerm {
	v := tf.V
	pinned := true
	for m := level - 1; m < v.Depth(); m++ {
		if v.R[m] != 1 {
			pinned = false
			break
		}
	}
	var pin int64
	if pinned {
		pin = tf.sPlus(level - 1)
	}
	return ModTerm{
		Coef:   coef,
		Level:  level,
		Pinned: pinned,
		PinVal: pin,
		MaxVal: v.N[level-2] - 1,
		v:      v,
	}
}

// Eval evaluates the symbolic form (used to cross-check against the
// recursive Eval).
func (s *Symbolic) Eval(n int64) (int64, bool) {
	if !s.TF.Contains(n) {
		return 0, false
	}
	val := s.Const.Add(s.CoefN.MulI(n))
	for _, m := range s.Mods {
		val = val.Add(m.Coef.MulI(gValue(s.TF.V, n, m.Level)))
	}
	if !val.IsInt() {
		panic("skew: symbolic τ evaluated to a non-integer on its domain")
	}
	return val.Num(), true
}

// gValue computes g(level) for ordinal n: the mod chain over levels
// 1..level−1.
func gValue(v *Vectors, n int64, level int) int64 {
	g := n
	for j := 0; j < level-1; j++ {
		g = (g - v.S[j]) % v.N[j]
	}
	return g
}

// String renders the function like the paper's Table 6-4, e.g.
// "52/3 + 5/3 n - 2/3 (n-4) mod 3".
func (s *Symbolic) String() string {
	var sb strings.Builder
	sb.WriteString(s.Const.String())
	if s.CoefN.Sign() != 0 {
		writeSigned(&sb, s.CoefN, "n")
	}
	for _, m := range s.Mods {
		writeSigned(&sb, m.Coef, m.chainString())
	}
	return sb.String()
}

func writeSigned(sb *strings.Builder, coef Rat, operand string) {
	if coef.Sign() >= 0 {
		sb.WriteString(" + ")
	} else {
		sb.WriteString(" - ")
		coef = coef.Neg()
	}
	if coef.Cmp(RI(1)) != 0 {
		sb.WriteString(coef.String())
		sb.WriteString(" ")
	}
	sb.WriteString(operand)
}

// DomainString renders the domain like the paper's Table 6-4, e.g.
// "4 <= n <= 7 and (n-4) mod 3 = 0".  Each level's g(j) is bounded by
// the slack of its own and all inner levels (identical to the paper's
// rendering for its two-level examples).
func (s *Symbolic) DomainString() string {
	tf := s.TF
	v := tf.V
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d <= n <= %d", tf.DomainMin(), tf.DomainMax())
	for j := 2; j <= v.Depth(); j++ {
		if v.N[j-2] == 1 {
			continue // (…) mod 1 = 0 constrains nothing
		}
		lo := tf.sPlus(j - 1)
		hi := lo
		for m := j - 1; m < v.Depth(); m++ {
			hi += (v.R[m] - 1) * v.N[m]
		}
		chain := ModTerm{Level: j, v: v}.chainString()
		if lo == hi {
			fmt.Fprintf(&sb, " and %s = %d", chain, lo)
		} else {
			fmt.Fprintf(&sb, " and %d <= %s <= %d", lo, chain, hi)
		}
	}
	return sb.String()
}

// Vectors are the five characteristic vectors of one I/O statement
// (§6.2.1 of the paper).  Each has k elements, where k−1 is the number
// of enclosing loops and the statement itself is treated as a final
// single-iteration loop, the first element describing the outermost
// loop:
//
//	R: number of iterations
//	N: number of inputs/outputs (of this statement's kind and channel)
//	   in one iteration of the loop
//	S: ordinal number of the first input/output in the loop with
//	   respect to the enclosing loop
//	L: time of execution of one iteration of the loop
//	T: time to start the first iteration of the loop with respect to
//	   the enclosing loop
type Vectors struct {
	ID   int
	Kind skew.Kind
	R    []int64
	N    []int64
	S    []int64
	L    []int64
	T    []int64
}

// Depth returns k, the number of vector elements.
func (v *Vectors) Depth() int { return len(v.R) }

func fmtVec(v []int64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func (v *Vectors) String() string {
	return fmt.Sprintf("%s(%d): R=%s N=%s S=%s L=%s T=%s",
		v.Kind, v.ID, fmtVec(v.R), fmtVec(v.N), fmtVec(v.S), fmtVec(v.L), fmtVec(v.T))
}

// Statements extracts the characteristic vectors of every statement of
// kind k in the program, ordered by statement ID.
func Statements(p *skew.Prog, k skew.Kind) []*Vectors {
	var out []*Vectors
	extractVectors(p.Body, k, nil, &out)
	return out
}

// frame describes one enclosing loop during extraction.
type frame struct {
	r, n, s, l, t int64
}

// extractVectors appends the vectors of body's statements in program
// order, which numbers them.
func extractVectors(body []skew.Node, k skew.Kind, stack []frame, out *[]*Vectors) {
	// opsBefore counts the kind-k operations executed earlier in this
	// body (one iteration of the enclosing loop).
	var opsBefore int64
	for i := range body {
		n := &body[i]
		if l := n.Loop; l != nil {
			sends, perIter := skew.Count(l.Body, skew.Forever)
			if k == skew.Output {
				perIter = sends
			}
			f := frame{r: l.Trips, n: perIter, s: opsBefore, l: l.IterLen, t: n.At}
			extractVectors(l.Body, k, append(stack, f), out)
			opsBefore += l.Trips * perIter
			continue
		}
		for c := n.Events(k); c > 0; c-- {
			v := &Vectors{ID: len(*out), Kind: k}
			for _, f := range stack {
				v.R = append(v.R, f.r)
				v.N = append(v.N, f.n)
				v.S = append(v.S, f.s)
				v.L = append(v.L, f.l)
				v.T = append(v.T, f.t)
			}
			// The statement itself is a single-iteration loop of one
			// cycle (§6.2.1: "the input/output operations themselves
			// are considered a single-iteration loop").
			v.R = append(v.R, 1)
			v.N = append(v.N, 1)
			v.S = append(v.S, opsBefore)
			v.L = append(v.L, 1)
			v.T = append(v.T, n.At)
			*out = append(*out, v)
			opsBefore++
		}
	}
}
