package verify

import (
	"encoding/binary"
	"slices"

	"warp/internal/mcode"
	"warp/internal/skew"
)

// sigform.go proves the IU's loop signals equal, in order, the boundaries
// the cell sequencer crosses, without enumerating either.  Both sequences
// of (loop ID, more) symbols are put into one hash-consed run-length
// normal form: a sequence is a list of runs, a run is n back-to-back
// copies of an interned node, and a node is a symbol or a sequence.
// Adjacent runs of one node merge, and a body repeated k times becomes
// one run of its smallest repeating unit.
//
// Each side comes from its loop tree, and a loop's sequence is one node
// (sigForms.close).  The cell's boundary tree (skew.Streams.Bnd) repeats a
// loop's body with "more" for all iterations but the last.  An IU loop's signals depend on its own counter alone: a
// static IUSig is fixed, and a dynamic one is monotone in the counter
// (iter·M + Copy < CellTrips−1), so a loop splits into at most one more
// uniform range of iterations than it has dynamic signals, and each range
// is its body repeated.  Inner loops do not depend on the outer counter
// and are built once.  The proof accepts when both sides come out as the
// same run list — the same root node.  Different lists may still spell
// one sequence; the diagnostic renderer then decides, event by event.
// The timing of the signals is the Sig-queue proof's (checkIUStreams).

// sigRun is n back-to-back copies of one interned node.
type sigRun struct {
	node int32
	n    int64
}

// sigNode is an interned node: a symbol when body is nil.
type sigNode struct {
	id   int
	more bool
	body []sigRun
}

// sigForms interns nodes for the two sides of one proof.
type sigForms struct {
	ids   map[string]int32
	nodes []sigNode
	key   []byte
	// steps counts runs appended: like the fold's, it follows the loop
	// structure, not the trip counts.
	steps int64
}

func newSigForms() *sigForms { return &sigForms{ids: map[string]int32{}} }

func (s *sigForms) intern(n sigNode) int32 {
	if id, ok := s.ids[string(s.key)]; ok {
		return id
	}
	id := int32(len(s.nodes))
	if n.body != nil {
		n.body = slices.Clone(n.body)
	}
	s.nodes = append(s.nodes, n)
	s.ids[string(s.key)] = id
	return id
}

func (s *sigForms) symbol(id int, more bool) sigRun {
	s.key = binary.AppendVarint(append(s.key[:0], 0), int64(id))
	if more {
		s.key = append(s.key, 1)
	}
	return sigRun{s.intern(sigNode{id: id, more: more}), 1}
}

func (s *sigForms) seq(body []sigRun) int32 {
	s.key = append(s.key[:0], 1)
	for _, r := range body {
		s.key = binary.AppendVarint(binary.AppendVarint(s.key, int64(r.node)), r.n)
	}
	return s.intern(sigNode{body: body})
}

// add appends a run, merging it with a last run of the same node.
func (s *sigForms) add(out []sigRun, r sigRun) []sigRun {
	s.steps++
	if n := len(out); n > 0 && out[n-1].node == r.node {
		out[n-1].n += r.n
		return out
	}
	return append(out, r)
}

// rep appends body repeated k times: spliced in for one copy, else as
// one run of body's smallest repeating unit.
func (s *sigForms) rep(out, body []sigRun, k int64) []sigRun {
	switch {
	case k <= 0 || len(body) == 0:
		return out
	case k == 1:
		for _, r := range body {
			out = s.add(out, r)
		}
		return out
	}
	p := period(body)
	if p == 1 {
		return s.add(out, sigRun{body[0].node, body[0].n * k * int64(len(body))})
	}
	return s.add(out, sigRun{s.seq(body[:p]), k * int64(len(body)/p)})
}

// period is the length of body's smallest prefix that repeats to it.
func period(body []sigRun) int {
next:
	for p := 1; p < len(body); p++ {
		if len(body)%p != 0 {
			continue
		}
		for i := p; i < len(body); i++ {
			if body[i] != body[i-p] {
				continue next
			}
		}
		return p
	}
	return len(body)
}

// cellLoop is the boundary sequence of one cell loop: its body with
// "more" Trips−1 times, then with "stop".
func (s *sigForms) cellLoop(l *skew.Nest) []sigRun {
	inner := s.cellInner(l.Body)
	out := s.rep(nil, s.cellBody(l.Body, nil, false, inner), l.Trips-1)
	return s.close(s.cellBody(l.Body, out, true, inner))
}

// close finishes a loop's sequence.  One that signals a single loop is
// left as runs of symbols for the enclosing body to splice in: the IU
// unrolls such a (short, innermost) loop and peels its last iterations
// into straight code, which the enclosing body's runs then merge with.
// Any other becomes one node, so that a nest costs its depth, not its
// iterations, however few trips its loops have.
func (s *sigForms) close(list []sigRun) []sigRun {
	for _, r := range list {
		if n := &s.nodes[r.node]; n.body != nil || n.id != s.nodes[list[0].node].id {
			return []sigRun{{s.seq(list), 1}}
		}
	}
	return list
}

// cellInner builds the sequences of the loops directly in body, once.
func (s *sigForms) cellInner(body []skew.Node) [][]sigRun {
	var inner [][]sigRun
	for i := range body {
		if l := body[i].Loop; l != nil {
			inner = append(inner, s.cellLoop(l))
		}
	}
	return inner
}

// cellBody appends one pass over body to out; a boundary leaf says
// "more" unless its loop is in its last iteration.
func (s *sigForms) cellBody(body []skew.Node, out []sigRun, last bool, inner [][]sigRun) []sigRun {
	k := 0
	for i := range body {
		if body[i].Loop == nil {
			out = s.add(out, s.symbol(body[i].Instr, !last))
			continue
		}
		out = s.rep(out, inner[k], 1)
		k++
	}
	return out
}

// iuLoop is the signal sequence of one IU loop, built once per loop
// (into l.sigs).  ok is false when a dynamic signal's decision might
// wrap around int64, where monotonicity is not guaranteed.
func (s *sigForms) iuLoop(l *iuLoop) bool {
	if !s.iuInner(l.body) {
		return false
	}
	cuts := []int64{0, l.trips}
	for _, it := range l.body {
		for _, w := range it.words {
			sig := w.Sig
			if sig == nil || sig.Static {
				continue
			}
			if !monotone(sig, l.trips) {
				return false
			}
			cuts = append(cuts, flip(sig, l.trips))
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	var list []sigRun
	for i := 0; i+1 < len(cuts); i++ {
		list = s.rep(list, s.iuBody(l.body, nil, cuts[i]), cuts[i+1]-cuts[i])
	}
	l.sigs = s.close(list)
	return true
}

// iuInner builds the sequences of the loops directly in items.
func (s *sigForms) iuInner(items []iuItem) bool {
	for _, it := range items {
		if l := it.loop; l != nil && l.hasSig && !s.iuLoop(l) {
			return false
		}
	}
	return true
}

// iuBody appends one pass over items, at iteration iter of their loop.
func (s *sigForms) iuBody(items []iuItem, out []sigRun, iter int64) []sigRun {
	for _, it := range items {
		if l := it.loop; l != nil {
			out = s.rep(out, l.sigs, 1)
			continue
		}
		for _, w := range it.words {
			if sig := w.Sig; sig != nil {
				out = s.add(out, s.symbol(sig.LoopID, decide(sig, iter)))
			}
		}
	}
	return out
}

// flip returns the first iteration below trips at which a dynamic
// signal decides otherwise than at iteration 0, or trips: iter·M < D with
// D = CellTrips−1−Copy holds below ⌈D/M⌉ for M > 0 and above ⌊D/M⌋ for
// M < 0.
func flip(sig *mcode.IUSig, trips int64) int64 {
	d := sig.CellTrips - 1 - sig.Copy
	var at int64
	switch {
	case sig.M > 0:
		at = -floorDiv(-d, sig.M)
	case sig.M < 0:
		at = floorDiv(-d, -sig.M) + 1
	}
	if at <= 0 || at > trips {
		return trips
	}
	return at
}

// floorDiv is ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// monotone reports whether iter·M + Copy cannot overflow over trips
// iterations, nor CellTrips−1.
func monotone(sig *mcode.IUSig, trips int64) bool {
	const big = 1 << 61
	m := max(sig.M, -sig.M)
	return sig.M > -big && (m == 0 || trips <= big/m) && sig.Copy > -big && sig.Copy < big && sig.CellTrips > -big
}

// sameSignals decides structurally whether the IU's signal sequence is
// the cell sequencer's boundary sequence; false also when it cannot tell.
func sameSignals(c *iuCode, bnd []skew.Node, steps *int64) bool {
	s := newSigForms()
	defer func() { *steps += s.steps }()
	if !s.iuInner(c.items) {
		return false
	}
	iu := s.iuBody(c.items, nil, 0)
	cell := s.cellBody(bnd, nil, true, s.cellInner(bnd))
	return slices.Equal(iu, cell)
}
