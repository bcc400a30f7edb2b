package skew

// The walk as it was before it reused the walks of repeated contexts,
// kept verbatim as the reference TestReuseMatchesReference holds the
// evaluator to: the same peak, low, verdict and evals on every tree.

type refOccupancy struct {
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
func (o *refOccupancy) walk(body []Node, base, pushed int64) bool {
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

// refEvaluate is Evaluate on the reference walk.
func refEvaluate(pushes, pops []Node, lag, budget int64, evals *int64) (peak, low int64, ok bool) {
	o := refOccupancy{pops: pops, lag: lag, budget: budget}
	ok = o.walk(pushes, 0, 0)
	*evals += o.evals
	pushed, _ := Count(pushes, Forever)
	_, popped := Count(pops, Forever)
	return o.peak, min(o.low, pushed-popped), ok
}
