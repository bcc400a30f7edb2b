package paper

import (
	"fmt"

	"warp/internal/skew"
)

// This file computes the minimum skew between adjacent cells: the
// smallest delay of the downstream cell's start such that every receive
// executes no earlier than its matching send (§6.2.1).
//
//	minimum skew = max over n of ( τ_O(n) − τ_I(n) )
//
// where τ_O times the nth output of the upstream cell's program and τ_I
// the nth input of the downstream cell's program.  Two methods are
// provided here: exact enumeration (ground truth; cost proportional to
// the number of dynamic I/O operations) and the paper's cheap pairwise
// bound over the closed-form timing functions (cost proportional to the
// number of static I/O statement pairs, independent of trip counts).
// They are the paper's reproduction and the tests' oracle; the compiler
// itself runs Analysis (analysis.go), which is exact and independent of
// trip counts.

// Overlap classifies how the domains of an output statement and an
// input statement relate (§6.2.1).
type Overlap int

// Overlap classes.
const (
	// Disjoint: no datum produced by the output statement is read by
	// the input statement.
	Disjoint Overlap = iota
	// Complete: every datum produced by the output statement is read by
	// the input statement.
	Complete
	// Partial: some but not all are.
	Partial
	// Unknown: the domains were too large to classify cheaply; treated
	// as Partial for bounding purposes.
	Unknown
)

func (o Overlap) String() string {
	switch o {
	case Disjoint:
		return "disjoint"
	case Complete:
		return "completely overlapped"
	case Partial:
		return "partially overlapped"
	}
	return "unknown"
}

// BoundMode selects how pairwise bounds treat mod terms.
type BoundMode int

// Bound modes.
const (
	// BoundPaper reproduces the paper's recipe (§6.2.1's partially
	// overlapped example): positive-coefficient mod terms take their
	// pinned value when the owning domain pins them, otherwise their
	// maximum; negative-coefficient terms are dropped (lower-bounded by
	// zero).
	BoundPaper BoundMode = iota
	// BoundTight additionally uses pinned values for negative
	// coefficients, which is still sound and never looser.
	BoundTight
)

// classifyLimit bounds the enumeration effort spent classifying a pair's
// domain overlap exactly.
const classifyLimit = 1 << 14

// PairBound is the result of analyzing one (output statement, input
// statement) pair.
type PairBound struct {
	Out, In *Vectors
	Overlap Overlap
	// Bound is a sound upper bound on τ_O(n)−τ_I(n) over the common
	// domain; meaningless when Overlap is Disjoint.
	Bound Rat
}

// AnalyzePair classifies the domain overlap of an output/input statement
// pair and bounds their time difference.
func AnalyzePair(out, in *Vectors, mode BoundMode) PairBound {
	if out.Kind != skew.Output || in.Kind != skew.Input {
		panic("skew: AnalyzePair wants (output, input) vectors")
	}
	tfO, tfI := NewTimingFunc(out), NewTimingFunc(in)
	pb := PairBound{Out: out, In: in}
	pb.Overlap = classify(tfO, tfI)
	if pb.Overlap == Disjoint {
		return pb
	}
	pb.Bound = pairBound(tfO, tfI, mode)
	return pb
}

// classify determines the overlap class.  Small domains are enumerated
// exactly; for larger ones a cheap interval test detects some disjoint
// pairs and the rest are Unknown.
func classify(tfO, tfI *TimingFunc) Overlap {
	loO, hiO := tfO.DomainMin(), tfO.DomainMax()
	loI, hiI := tfI.DomainMin(), tfI.DomainMax()
	if hiO < loI || hiI < loO {
		return Disjoint
	}
	if tfO.DomainSize() <= classifyLimit {
		var common, outOnly int64
		tfO.DomainEach(func(n int64) bool {
			if tfI.Contains(n) {
				common++
			} else {
				outOnly++
			}
			return true
		})
		switch {
		case common == 0:
			return Disjoint
		case outOnly == 0:
			return Complete
		default:
			return Partial
		}
	}
	return Unknown
}

// pairBound computes the paper's upper bound on τ_O(n)−τ_I(n):
// the difference of the two symbolic forms, with n at the endpoint of
// the intersected ordinal interval selected by the sign of its
// coefficient and each mod term replaced by an extreme (or pinned)
// value.
func pairBound(tfO, tfI *TimingFunc, mode BoundMode) Rat {
	symO, symI := tfO.Symbolic(), tfI.Symbolic()
	c0 := symO.Const.Sub(symI.Const)
	c1 := symO.CoefN.Sub(symI.CoefN)

	lo := max(tfO.DomainMin(), tfI.DomainMin())
	hi := min(tfO.DomainMax(), tfI.DomainMax())
	nStar := hi
	if c1.Sign() < 0 {
		nStar = lo
	}
	bound := c0.Add(c1.MulI(nStar))

	addTerm := func(m ModTerm, negate bool) {
		coef := m.Coef
		if negate {
			coef = coef.Neg()
		}
		var val int64
		switch {
		case coef.Sign() > 0:
			if m.Pinned {
				val = m.PinVal
			} else {
				val = m.MaxVal
			}
		case mode == BoundTight && m.Pinned:
			val = m.PinVal
		default:
			// Negative coefficient: the term is ≥ 0, so dropping it
			// (value 0) can only increase the bound.
			val = 0
		}
		bound = bound.Add(coef.MulI(val))
	}
	for _, m := range symO.Mods {
		addTerm(m, false)
	}
	for _, m := range symI.Mods {
		addTerm(m, true)
	}
	return bound
}

// MinSkewExact computes the exact minimum skew between the upstream
// cell's output program and the downstream cell's input program by
// enumerating every matched send/receive pair.  The result may be
// negative (the downstream cell could even start early); callers clamp
// as appropriate.  The two programs must perform the same number of
// operations.
func MinSkewExact(out, in *skew.Prog) (int64, error) {
	to := Times(out, skew.Output)
	ti := Times(in, skew.Input)
	if len(to) != len(ti) {
		return 0, fmt.Errorf("skew: %d outputs vs %d inputs; send/receive counts must match", len(to), len(ti))
	}
	if len(to) == 0 {
		return 0, nil
	}
	best := to[0] - ti[0]
	for n := 1; n < len(to); n++ {
		best = max(best, to[n]-ti[n])
	}
	return best, nil
}

// MinSkewBound computes the paper's cheap upper bound on the minimum
// skew: the maximum pairwise bound over every (output statement, input
// statement) pair with potentially overlapping domains.  It also
// returns the per-pair analyses for reporting.
//
// A branch-and-bound prefilter (suggested in §6.2.1) skips the detailed
// bound for pairs whose coarse bound — latest output time minus earliest
// input time over the respective domains — cannot beat the current
// maximum.
func MinSkewBound(out, in *skew.Prog, mode BoundMode) (Rat, []PairBound, error) {
	co, ci := out.Count(skew.Output), in.Count(skew.Input)
	if co != ci {
		return Rat{}, nil, fmt.Errorf("skew: %d outputs vs %d inputs; send/receive counts must match", co, ci)
	}
	outStmts := Statements(out, skew.Output)
	inStmts := Statements(in, skew.Input)
	var pairs []PairBound
	have := false
	var best Rat
	for _, o := range outStmts {
		tfO := NewTimingFunc(o)
		maxO, ok := tfO.Eval(tfO.DomainMax())
		if !ok {
			panic("skew: domain max outside domain")
		}
		for _, i := range inStmts {
			tfI := NewTimingFunc(i)
			minI, ok := tfI.Eval(tfI.DomainMin())
			if !ok {
				panic("skew: domain min outside domain")
			}
			if have && RI(maxO-minI).Cmp(best) <= 0 {
				// Coarse bound cannot improve the maximum.
				continue
			}
			pb := AnalyzePair(o, i, mode)
			pairs = append(pairs, pb)
			if pb.Overlap == Disjoint {
				continue
			}
			if !have || pb.Bound.Cmp(best) > 0 {
				best = pb.Bound
				have = true
			}
		}
	}
	if !have {
		return RI(0), pairs, nil
	}
	return best, pairs, nil
}

// MaxOccupancy computes the maximum number of words resident in the
// queue between an upstream cell executing the output program (starting
// at cycle 0) and a downstream cell executing the input program
// (starting at cycle lag, the skew): the queue-occupancy analysis of
// §6.2.2.  A word occupies the queue from the cycle it is sent until the
// cycle it is received.  It enumerates every dynamic operation: the
// oracle skew.Analysis.CheckQueue is tested against.
func MaxOccupancy(out, in *skew.Prog, lag int64) (int64, error) {
	to := Times(out, skew.Output)
	ti := Times(in, skew.Input)
	if len(to) != len(ti) {
		return 0, fmt.Errorf("skew: %d outputs vs %d inputs; send/receive counts must match", len(to), len(ti))
	}
	return occupancy(to, ti, lag)
}

// occupancy is MaxOccupancy of the sends at cycles to and the receives
// at cycles ti, lag later.
func occupancy(to, ti []int64, lag int64) (int64, error) {
	var cur, maxOcc int64
	i, j := 0, 0
	for i < len(to) || j < len(ti) {
		// At equal times the arriving word is latched while another
		// leaves, so count the send first (conservative peak).
		if i < len(to) && (j >= len(ti) || to[i] <= ti[j]+lag) {
			cur++
			maxOcc = max(maxOcc, cur)
			i++
		} else {
			cur--
			if cur < 0 {
				return 0, fmt.Errorf("skew: receive %d executes at cycle %d before its matching send at cycle %d (queue underflow; skew %d too small)",
					j, ti[j]+lag, to[j], lag)
			}
			j++
		}
	}
	return maxOcc, nil
}
