package skew

import (
	"sort"

	"warp/internal/mcode"
)

// tree.go evaluates queue occupancy on the loop tree, without expanding
// a trip count.  It is the one evaluator in the compiler: Analysis
// searches the minimum skew with it (over trees converted from Prog) and
// internal/verify proves every queue of the finished microcode with it
// (over trees it derives from the microcode itself).
//
// Every queue in the machine is push-before-pop within a cycle: the
// global clock steps the IU, then the host, then the cells left to
// right, so a word pushed upstream at cycle t is poppable downstream at
// the same t.
//
// Let S(x) and R(x) count the pushes and the pops at stream cycles ≤ x,
// and let the pops run d cycles behind their stream.  Right after the
// pushes of cycle x land, the queue holds S(x) − R(x−d−1) words; right
// before them, the least it ever holds since the previous push,
// S(x−1) − R(x−d−1).  The queue is safe iff the first never exceeds the
// depth and the second (and the final balance) never falls below zero,
// and both only need looking at where a push happens.
//
// The lemma that makes this structural: inside one instance of a loop
// with period P, for every x such that x−d−1 lies, with x, in a stretch
// where the popping stream repeats with a period dividing P (or does
// nothing at all),
//
//	occ(x+P) − occ(x) = pushes/iteration − pops/P cycles,
//
// a constant.  Along such a stretch of iterations occupancy is linear in
// the iteration number, so its extremes sit in the first and the last of
// them: walk visits those two and nothing in between, stretch after
// stretch, recursively.  For a queue between two copies of one stream
// that is the first ⌈(d+1)/P⌉+1 iterations, which look back past the
// loop's start, and the last; a loop against pops with no common period
// is walked in full — the plain sweep.

// Node is one element of a structured timed stream: either a leaf
// carrying event counts at one cycle, or a loop.  The nodes of a body
// are in increasing cycle order and do not overlap.
type Node struct {
	At    int64 // cycle relative to the enclosing body's start
	Instr int   // leaf: whatever the builder wants named in a diagnostic
	Send  int   // events pushed at this cycle
	Recv  int   // events popped at this cycle
	Loop  *Nest
	// Events of the enclosing body's earlier nodes (set by Seal).
	sends, recvs int64
}

// Nest is a counted loop of a stream: Trips iterations of IterLen cycles
// each, back to back.
type Nest struct {
	Trips   int64
	IterLen int64
	Body    []Node
	// Events of one iteration (set by Seal).
	sends, recvs int64
}

// Seal returns the dynamic send/recv event totals of a stream without
// enumerating it — closed-form products over trip counts — and records
// on every node the totals of what precedes it, which is what lets Count
// answer a prefix query in O(depth · log body).  A stream must be sealed
// before Count or Evaluate sees it.
func Seal(body []Node) (sends, recvs int64) {
	for i := range body {
		n := &body[i]
		n.sends, n.recvs = sends, recvs
		if l := n.Loop; l != nil {
			l.sends, l.recvs = Seal(l.Body)
			s, okS := mcode.MulAdd(sends, l.sends, l.Trips)
			r, okR := mcode.MulAdd(recvs, l.recvs, l.Trips)
			if !okS || !okR { // never for a program mcode.CountCell accepts
				panic("skew: a stream's event count overflows 64 bits")
			}
			sends, recvs = s, r
			continue
		}
		sends += int64(n.Send)
		recvs += int64(n.Recv)
	}
	return sends, recvs
}

// Forever is later than any cycle of any stream.
const Forever = int64(1) << 62

// Count returns how many sends and receives of the sealed stream fall at
// cycles ≤ x.
func Count(body []Node, x int64) (sends, recvs int64) {
	for {
		i := sort.Search(len(body), func(i int) bool { return body[i].At > x }) - 1
		if i < 0 {
			return sends, recvs
		}
		n := &body[i]
		sends, recvs = sends+n.sends, recvs+n.recvs
		l := n.Loop
		if l == nil {
			return sends + int64(n.Send), recvs + int64(n.Recv)
		}
		k := (x - n.At) / l.IterLen
		if k >= l.Trips {
			return sends + l.Trips*l.sends, recvs + l.Trips*l.recvs
		}
		sends, recvs = sends+k*l.sends, recvs+k*l.recvs
		body, x = l.Body, x-n.At-k*l.IterLen
	}
}

// stretch returns cycles [lo, hi) around cycle t within which the
// stream's counts advance by a constant every period cycles: the
// outermost loop instance around t whose period divides period, or
// failing that the eventless gap t falls in (the constant is then zero).
func stretch(body []Node, t, period int64) (lo, hi int64) {
	lo, hi = -Forever, Forever
	var base int64
	for {
		i := sort.Search(len(body), func(i int) bool { return base+body[i].At > t }) - 1
		if i+1 < len(body) {
			hi = base + body[i+1].At
		}
		if i < 0 {
			return lo, hi
		}
		at, l := base+body[i].At, body[i].Loop
		if l == nil {
			return at, hi
		}
		k := (t - at) / l.IterLen
		if k >= l.Trips {
			return at + l.Trips*l.IterLen, hi
		}
		if period%l.IterLen == 0 {
			return at, at + l.Trips*l.IterLen
		}
		base = at + k*l.IterLen
		lo, hi, body = base, base+l.IterLen, l.Body
	}
}

// occupancy is one structural evaluation: the extremes of the queue
// pushed by the sends of the walked stream and popped by the receives of
// pops, which by the time the pushes of cycle x land has performed the
// receives of its cycles ≤ x−lag.
type occupancy struct {
	pops []Node
	lag  int64
	// peak is the most the queue holds right after a push, low the least
	// right before one.
	peak, low int64
	// evals counts the pushes looked at, against budget.
	evals, budget int64
}

// walk visits the pushes of body, whose first cycle is base and before
// which the stream has pushed pushed words.  It returns false once the
// work budget is spent.
func (o *occupancy) walk(body []Node, base, pushed int64) bool {
	for i := range body {
		n := &body[i]
		at, before := base+n.At, pushed+n.sends
		l := n.Loop
		if l == nil {
			if n.Send == 0 {
				continue
			}
			if o.evals++; o.evals > o.budget {
				return false
			}
			_, popped := Count(o.pops, at-o.lag)
			occ := before + int64(n.Send) - popped
			o.peak = max(o.peak, occ)
			o.low = min(o.low, occ-int64(n.Send))
			continue
		}
		if l.sends == 0 {
			continue
		}
		for k := int64(0); k < l.Trips; k++ {
			if !o.walk(l.Body, at+k*l.IterLen, before+k*l.sends) {
				return false
			}
			// Iterations k..last look back into one stretch of the pops
			// (see the lemma): occupancy is linear across them, so k and
			// last stand for all.
			_, hi := stretch(o.pops, at+k*l.IterLen-o.lag, l.IterLen)
			if last := min(l.Trips, (hi+o.lag-at)/l.IterLen) - 1; last > k {
				if !o.walk(l.Body, at+last*l.IterLen, before+last*l.sends) {
					return false
				}
				k = last
			}
		}
	}
	return true
}

// Evaluate returns the exact extremes of the queue pushed by the sends
// of pushes and popped by the receives of pops lag cycles behind: its
// peak, and its low-water mark (negative when a pop underflows; the
// final balance included).  Both streams must be sealed.  The pushes
// looked at are added to evals; ok is false when one evaluation would
// look at more than budget of them.
func Evaluate(pushes, pops []Node, lag, budget int64, evals *int64) (peak, low int64, ok bool) {
	o := occupancy{pops: pops, lag: lag, budget: budget}
	ok = o.walk(pushes, 0, 0)
	*evals += o.evals
	pushed, _ := Count(pushes, Forever)
	_, popped := Count(pops, Forever)
	return o.peak, min(o.low, pushed-popped), ok
}
