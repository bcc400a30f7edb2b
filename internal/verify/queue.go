package verify

import (
	"warp/internal/mcode"
	"warp/internal/skew"
)

// queue.go decides queue safety.  The accept path never expands a trip
// count: skew.Evaluate (the evaluator the compiler's skew search uses
// too; the lemma is in its file header and DESIGN §8) returns a queue's
// exact peak and low-water mark from the loop trees this package derives
// from the microcode.  Only a violated queue is enumerated, to name the
// first offending event.

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

// proveQueue decides the safety of the queue pushed by the sends of
// pushes and popped, shift cycles later, by the receives of pops, and
// returns its exact peak occupancy.  The accept path is structural; only
// a violated queue is enumerated, to name the first offending event.
// ok is false when either ran into the budget: the queue is unproven.
func proveQueue(pushes, pops []skew.Node, shift int64, evals *int64) (res sweepResult, ok bool) {
	peak, low, ok := skew.Evaluate(pushes, pops, shift+1, enumEventLimit, evals)
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
