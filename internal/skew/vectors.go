package skew

import (
	"fmt"
	"strings"
)

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
	Kind Kind
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
func Statements(p *Prog, k Kind) []*Vectors {
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
func extractVectors(body []Node, k Kind, stack []frame, out *[]*Vectors) {
	// opsBefore counts the kind-k operations executed earlier in this
	// body (one iteration of the enclosing loop).
	var opsBefore int64
	for i := range body {
		n := &body[i]
		if l := n.Loop; l != nil {
			perIter := l.recvs // sealed
			if k == Output {
				perIter = l.sends
			}
			f := frame{r: l.Trips, n: perIter, s: opsBefore, l: l.IterLen, t: n.At}
			extractVectors(l.Body, k, append(stack, f), out)
			opsBefore += l.Trips * perIter
			continue
		}
		for c := events(n, k); c > 0; c-- {
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
