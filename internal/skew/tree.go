package skew

import (
	"math"
	"sort"

	"warp/internal/mcode"
)

// tree.go evaluates queue occupancy on the loop tree, without expanding
// a trip count.  It is the one evaluator in the compiler, and it reads
// the trees of one builder (CellStreams): Analysis searches the minimum
// skew with it over a Prog's data streams, and internal/verify proves
// every queue of the finished microcode with it.
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
//
// One walk stands for every iteration that looks back into the same
// context.  The pushes of an iteration of a loop are the count before it
// plus what the loop's body holds; when its pops are looked up in a
// window that lies in one iteration of a pop loop, they are the count
// before that iteration plus what that body holds up to the same offset.
// So two such iterations — of any instances of the push loop — in the
// same context (pop loop, offset) see the same occupancy up to a
// constant, the difference of the counts before, and look at the same
// number of pushes: the second reuses the first's extremes and evals.
// Without it a nest of 2-trip loops whose first iterations look back
// before their loops — FFT's bit-reversal recursion seen from the IU,
// which leads the cells — would cost 2^depth walks of its innermost
// body.  Counts inside a walk resume from the pop iteration the previous
// count descended into.

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
// each, back to back.  A tree holds each Nest once: the evaluator tells
// the contexts of a walk apart by their Nest.
type Nest struct {
	Trips   int64
	IterLen int64
	Body    []Node
	// Events of one iteration, and whether its body holds a loop (set by
	// Seal).
	sends, recvs int64
	nested       bool
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
			for j := range l.Body {
				l.nested = l.nested || l.Body[j].Loop != nil
			}
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
	// evals counts the pushes looked at, against budget; reused the ones
	// of them reused walks stood for.
	evals, budget, reused int64
	// The walks reuse can stand for, in the order they were made.
	reuse [reuseSlots]walked
	kept  int
	// finger is the innermost pop loop iteration the last count descended
	// into: [lo, hi), its body, and the receives before it.
	finger struct {
		lo, hi, recvs int64
		body          []Node
	}
}

// popped returns the receives of the pops at cycles ≤ x: Count, resumed
// from the iteration the previous count ended in when x falls in it too.
func (o *occupancy) popped(x int64) (recvs int64) {
	f := &o.finger
	body, base := o.pops, int64(0)
	if f.lo <= x && x < f.hi {
		body, base, recvs = f.body, f.lo, f.recvs
	}
	for {
		i := sort.Search(len(body), func(i int) bool { return base+body[i].At > x }) - 1
		if i < 0 {
			return recvs
		}
		n := &body[i]
		recvs += n.recvs
		l := n.Loop
		if l == nil {
			return recvs + int64(n.Recv)
		}
		at := base + n.At
		k := (x - at) / l.IterLen
		if k >= l.Trips {
			return recvs + l.Trips*l.recvs
		}
		recvs += k * l.recvs
		base, body = at+k*l.IterLen, l.Body
		f.lo, f.hi, f.recvs, f.body = base, base+l.IterLen, recvs, body
	}
}

// reuseSlots bounds the walks one evaluation remembers.  Past it an
// iteration is walked, as when no earlier walk matches.
const reuseSlots = 32

// walked is one iteration of push, walked with its pops looked up in one
// iteration of pop from off cycles into it: its extremes less the
// queue's fill at the iteration's start, and the pushes it looked at.
type walked struct {
	push, pop *Nest
	off       int64
	peak, low int64
	evals     int64
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
			occ := before + int64(n.Send) - o.popped(at-o.lag)
			o.peak = max(o.peak, occ)
			o.low = min(o.low, occ-int64(n.Send))
			continue
		}
		if l.sends == 0 {
			continue
		}
		for k := int64(0); k < l.Trips; k++ {
			if !o.iter(l, at+k*l.IterLen, before+k*l.sends) {
				return false
			}
			// Iterations k..last look back into one stretch of the pops
			// (see the lemma): occupancy is linear across them, so k and
			// last stand for all.
			_, hi := stretch(o.pops, at+k*l.IterLen-o.lag, l.IterLen)
			if last := min(l.Trips, (hi+o.lag-at)/l.IterLen) - 1; last > k {
				if !o.iter(l, at+last*l.IterLen, before+last*l.sends) {
					return false
				}
				k = last
			}
		}
	}
	return true
}

// iter visits one iteration of l, at base and after pushed pushes.  Its
// pops are looked up in the window [base−lag, base−lag+IterLen); when
// that window lies in one iteration of a pop loop, the walk of an earlier
// iteration of l in the same context (pop loop, offset) stands for this
// one, its extremes moved by the difference of the counts before (see
// the file comment).  Only a body holding a loop is worth remembering.
func (o *occupancy) iter(l *Nest, base, pushed int64) bool {
	if !l.nested {
		return o.walk(l.Body, base, pushed)
	}
	pop, off, popped := context(o.pops, base-o.lag, l.IterLen)
	if pop == nil {
		return o.walk(l.Body, base, pushed)
	}
	fill := pushed - popped
	for i := range o.kept {
		w := &o.reuse[i]
		if w.push != l || w.pop != pop || w.off != off {
			continue
		}
		if o.evals+w.evals > o.budget {
			break // walk it: it stops where it always did
		}
		o.evals += w.evals
		o.reused += w.evals
		o.peak, o.low = max(o.peak, w.peak+fill), min(o.low, w.low+fill)
		return true
	}
	peak, low, evals := o.peak, o.low, o.evals
	o.peak, o.low = math.MinInt64, math.MaxInt64
	ok := o.walk(l.Body, base, pushed)
	if ok && o.kept < reuseSlots {
		o.reuse[o.kept] = walked{push: l, pop: pop, off: off, peak: o.peak - fill, low: o.low - fill, evals: o.evals - evals}
		o.kept++
	}
	o.peak, o.low = max(peak, o.peak), min(low, o.low)
	return ok
}

// context returns the innermost loop of the stream one of whose
// iterations holds all of the cycles [t, t+n), t's offset into that
// iteration and the receives before it; nil when no iteration of any
// loop holds them.
func context(body []Node, t, n int64) (inner *Nest, off, recvs int64) {
	var base, before int64
	for {
		i := sort.Search(len(body), func(i int) bool { return base+body[i].At > t }) - 1
		if i < 0 {
			return inner, off, recvs
		}
		at, l := base+body[i].At, body[i].Loop
		if l == nil {
			return inner, off, recvs
		}
		k := (t - at) / l.IterLen
		start := at + k*l.IterLen
		if k >= l.Trips || t+n > start+l.IterLen {
			return inner, off, recvs
		}
		before += body[i].recvs + k*l.recvs
		inner, off, recvs = l, t-start, before
		base, body = start, l.Body
	}
}

// evaluated hands each evaluation's walked pushes to the tests.
var evaluated func(walked int64)

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
	if evaluated != nil {
		evaluated(o.evals - o.reused)
	}
	pushed, _ := Count(pushes, Forever)
	return o.peak, min(o.low, pushed-o.popped(Forever)), ok
}
