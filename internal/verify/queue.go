package verify

import (
	"sort"

	"warp/internal/mcode"
)

// queue.go proves queue occupancy from the loop tree, without expanding
// a trip count.  Every queue in the machine is push-before-pop within a
// cycle: the global clock steps the IU, then the host, then the cells
// left to right, so a word pushed upstream at cycle t is poppable
// downstream at the same t.
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

// count returns how many sends and receives of the stream (sealed by
// treeCount) fall at cycles ≤ x.
func count(body []snode, x int64) (sends, recvs int64) {
	for {
		i := sort.Search(len(body), func(i int) bool { return body[i].at > x }) - 1
		if i < 0 {
			return sends, recvs
		}
		n := &body[i]
		sends, recvs = sends+n.sends, recvs+n.recvs
		l := n.loop
		if l == nil {
			return sends + int64(n.send), recvs + int64(n.recv)
		}
		k := (x - n.at) / l.iterLen
		if k >= l.trips {
			return sends + l.trips*l.sends, recvs + l.trips*l.recvs
		}
		sends, recvs = sends+k*l.sends, recvs+k*l.recvs
		body, x = l.body, x-n.at-k*l.iterLen
	}
}

// forever is later than any cycle of any stream.
const forever = int64(1) << 62

// stretch returns cycles [lo, hi) around cycle t within which the
// stream's counts advance by a constant every period cycles: the
// outermost loop instance around t whose period divides period, or
// failing that the eventless gap t falls in (the constant is then zero).
func stretch(body []snode, t, period int64) (lo, hi int64) {
	lo, hi = -forever, forever
	var base int64
	for {
		i := sort.Search(len(body), func(i int) bool { return base+body[i].at > t }) - 1
		if i+1 < len(body) {
			hi = base + body[i+1].at
		}
		if i < 0 {
			return lo, hi
		}
		at, l := base+body[i].at, body[i].loop
		if l == nil {
			return at, hi
		}
		k := (t - at) / l.iterLen
		if k >= l.trips {
			return at + l.trips*l.iterLen, hi
		}
		if period%l.iterLen == 0 {
			return at, at + l.trips*l.iterLen
		}
		base = at + k*l.iterLen
		lo, hi, body = base, base+l.iterLen, l.body
	}
}

// occupancy is one structural evaluation: the extremes of the queue
// pushed by the sends of the walked stream and popped by the receives of
// pops, which by the time the pushes of cycle x land has performed the
// receives of its cycles ≤ x−lag.
type occupancy struct {
	pops []snode
	lag  int64
	// peak is the most the queue holds right after a push, low the least
	// right before one.
	peak, low int64
	// evals counts the pushes looked at, against enumEventLimit.
	evals int64
}

// walk visits the pushes of body, whose first cycle is base and before
// which the stream has pushed pushed words.  It returns false once the
// work budget is spent.
func (o *occupancy) walk(body []snode, base, pushed int64) bool {
	for i := range body {
		n := &body[i]
		at, before := base+n.at, pushed+n.sends
		l := n.loop
		if l == nil {
			if n.send == 0 {
				continue
			}
			if o.evals++; o.evals > enumEventLimit {
				return false
			}
			_, popped := count(o.pops, at-o.lag)
			occ := before + int64(n.send) - popped
			o.peak = max(o.peak, occ)
			o.low = min(o.low, occ-int64(n.send))
			continue
		}
		if l.sends == 0 {
			continue
		}
		for k := int64(0); k < l.trips; k++ {
			if !o.walk(l.body, at+k*l.iterLen, before+k*l.sends) {
				return false
			}
			// Iterations k..last look back into one stretch of the pops
			// (see the lemma): occupancy is linear across them, so k and
			// last stand for all.
			_, hi := stretch(o.pops, at+k*l.iterLen-o.lag, l.iterLen)
			if last := min(l.trips, (hi+o.lag-at)/l.iterLen) - 1; last > k {
				if !o.walk(l.body, at+last*l.iterLen, before+last*l.sends) {
					return false
				}
				k = last
			}
		}
	}
	return true
}

// sweepResult is the verdict on one queue.
type sweepResult struct {
	maxOcc int64
	// underAt is the ordinal of the first pop that would underflow
	// (-1 when none), with the pop and the matching push times;
	// underNoPush when no push matches it at all.
	underAt             int
	underPop, underPush int64
	underNoPush         bool
	underInstr          int
	// overAt is the ordinal of the first push exceeding the depth (-1 none).
	overAt    int
	overPush  int64
	overInstr int
}

// evaluate returns the exact extremes of the queue pushed by the sends
// of pushes and popped by the receives of pops lag cycles behind: its
// peak, and its low-water mark (negative when a pop underflows; the
// final balance included).  The work done is added to evals; ok is false
// when it ran into the budget.
func evaluate(pushes, pops []snode, lag int64, evals *int64) (peak, low int64, ok bool) {
	o := occupancy{pops: pops, lag: lag}
	ok = o.walk(pushes, 0, 0)
	*evals += o.evals
	pushed, _ := count(pushes, forever)
	_, popped := count(pops, forever)
	return o.peak, min(o.low, pushed-popped), ok
}

// proveQueue decides the safety of the queue pushed by the sends of
// pushes and popped, shift cycles later, by the receives of pops, and
// returns its exact peak occupancy.  The accept path is structural; only
// a violated queue is enumerated, to name the first offending event.
// ok is false when either ran into the budget: the queue is unproven.
func proveQueue(pushes, pops []snode, shift int64, evals *int64) (res sweepResult, ok bool) {
	peak, low, ok := evaluate(pushes, pops, shift+1, evals)
	if !ok {
		return res, false
	}
	if low >= 0 && peak <= mcode.QueueDepth {
		return sweepResult{maxOcc: peak, underAt: -1, overAt: -1}, true
	}
	pu, ok1 := flatten(pushes, pickSend)
	po, ok2 := flatten(pops, pickRecv)
	if !ok1 || !ok2 {
		return res, false
	}
	return sweep(pu, po, shift), true
}

// sweep merges push events and pop events (shifted by shift) in time
// order, pushes first at ties, tracking occupancy against the queue
// depth.  Events must be in nondecreasing time order.
func sweep(pushes, pops []event, shift int64) sweepResult {
	res := sweepResult{underAt: -1, overAt: -1}
	var occ int64
	i, j := 0, 0
	for i < len(pushes) || j < len(pops) {
		pushNext := j >= len(pops)
		if !pushNext && i < len(pushes) {
			pushNext = pushes[i].at <= pops[j].at+shift
		}
		if pushNext {
			occ++
			if occ > res.maxOcc {
				res.maxOcc = occ
			}
			if occ > mcode.QueueDepth && res.overAt < 0 {
				res.overAt = i
				res.overPush = pushes[i].at
				res.overInstr = pushes[i].instr
			}
			i++
		} else {
			if occ == 0 && res.underAt < 0 {
				res.underAt = j
				res.underPop = pops[j].at + shift
				res.underInstr = pops[j].instr
				if j < len(pushes) {
					res.underPush = pushes[j].at
				} else {
					res.underNoPush = true
				}
				// An underflowed queue's subsequent occupancy is no longer
				// meaningful; stop.
				return res
			}
			occ--
			j++
		}
	}
	return res
}
