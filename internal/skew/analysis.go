// Package skew implements the paper's central contribution: the skewed
// computation model and the compile-time synchronization analysis that
// maps W2's asynchronous communication onto the synchronous Warp array
// (§3, §6.2).
//
// The package answers two questions about a compiled cell program:
//
//  1. Minimum skew: by how many cycles must a cell's execution be
//     delayed relative to its upstream neighbour so that no receive
//     operation executes before the matching send (queue underflow,
//     §6.2.1)?
//
//  2. Queue occupancy: given that skew, how many words can be resident
//     in a channel queue at once (queue overflow, §6.2.2)?
//
// Inputs are timed I/O programs: loop trees annotated with cycle-exact
// operation times, read off the microcode by CellStreams.  The paper's
// closed forms, its worked examples and the enumerating oracle the
// analysis is tested against are in internal/paper.
package skew

import "fmt"

// This file is the compiler's skew analysis for one channel: the
// minimum skew, and the queue occupancy at the skew the driver then
// picks, both read off the loop trees by the structural evaluator of
// tree.go.  Nothing here expands a trip count, so the cost depends on
// the loop structure alone; paper.MinSkewExact and paper.MaxOccupancy
// are the enumerating oracle the tests hold it to.

// evalBudget is the work one Analysis may do, in pushes looked at over
// all its evaluations.  Streams the evaluator cannot skip through (pops
// with no period in common with the pushes) run into it, and the
// analysis fails rather than hang or guess.
const evalBudget = 1 << 22

// Analysis carries one channel's skew computation: built once per
// channel, queried for the minimum skew, then — after the driver picks
// the global maximum across channels — for the queue occupancy at that
// chosen skew.
type Analysis struct {
	pushes, pops []Node // the upstream sends and the downstream receives
	evals        int64  // pushes looked at so far
}

// SearchStats describes how Analysis.MinSkewStats arrived at its answer.
// The profiler exports it so the skew phase's cost can be identified
// from data.
type SearchStats struct {
	Method string // "structural": evaluated on the loop tree
	Ops    int64  // point evaluations: pushes the evaluator looked at, over all probes
	Pairs  int64  // statement pairs analyzed (the paper's pairwise bound; not on the compile path)
	Pruned int64  // pairs skipped by its coarse prefilter
}

// NewAnalysis prepares the skew analysis for one channel pair: the
// outputs of out feed the queue the inputs of in drain.  It reads both
// programs in place.  A loop of fewer than one trip is refused here:
// Seal counts its body no times, but the sequencer runs it once, and
// while sema refuses empty source loops a pipelined kernel's trip count
// is computed.
func NewAnalysis(out, in *Prog) (*Analysis, error) {
	for _, p := range [...]*Prog{out, in} {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	if o, i := out.Count(Output), in.Count(Input); o != i {
		return nil, fmt.Errorf("skew: %d outputs vs %d inputs; send/receive counts must match", o, i)
	}
	return &Analysis{pushes: out.Body, pops: in.Body}, nil
}

// evaluate is one structural evaluation of the queue at the given skew,
// charged to the analysis budget.
func (a *Analysis) evaluate(skew int64) (peak, low int64, err error) {
	peak, low, ok := Evaluate(a.pushes, a.pops, skew+1, evalBudget-a.evals, &a.evals)
	if !ok {
		return 0, 0, fmt.Errorf("skew: queue not analyzed within the budget of %d evaluations (the sends and receives share no loop period)", int64(evalBudget))
	}
	return peak, low, nil
}

// MinSkewStats returns the minimum skew (clamped to ≥ 0) — the smallest
// at which no receive executes before its matching send, §6.2.1's
// max over n of τ_O(n) − τ_I(n) — and the search statistics.  The
// queue's low-water mark only rises with the skew, so the search gallops
// up from zero and bisects.
func (a *Analysis) MinSkewStats() (int64, SearchStats, error) {
	lo, hi := int64(-1), int64(0) // lo underflows (−1: no skew at all), hi is safe once the gallop ends
	for {
		_, low, err := a.evaluate(hi)
		if err != nil {
			return 0, a.stats(), err
		}
		if low >= 0 {
			break
		}
		lo, hi = hi, 2*hi+1
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		_, low, err := a.evaluate(mid)
		if err != nil {
			return 0, a.stats(), err
		}
		if low >= 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, a.stats(), nil
}

func (a *Analysis) stats() SearchStats {
	return SearchStats{Method: "structural", Ops: a.evals}
}

// CheckQueue verifies that with the given skew the queue never
// underflows and its occupancy never exceeds capacity.  It returns the
// maximum occupancy.
func (a *Analysis) CheckQueue(skew, capacity int64) (int64, error) {
	occ, low, err := a.evaluate(skew)
	if err != nil {
		return 0, err
	}
	if low < 0 {
		return 0, fmt.Errorf("skew: a receive executes before its matching send (queue underflow; skew %d too small)", skew)
	}
	if occ > capacity {
		return occ, overflow(occ, capacity)
	}
	return occ, nil
}

// CheckForwarded bounds, at the given skew, a queue between two cells
// whose pops replay its pushes skew cycles later: the Adr and Sig
// queues, whose words every cell forwards the cycle it consumes them.
// Its peak is the most events of the sealed stream body in one
// skew-cycle window, evaluated within evalBudget pushes (which also
// bounds each of the verifier's evaluations); decided is false when
// that runs out.  A peak past capacity fails with
// CheckQueue's overflow text.  The skew stage and the verifier both
// bound these queues with it.
func CheckForwarded(body []Node, skew, capacity int64, evals *int64) (peak int64, decided bool, err error) {
	peak, _, decided = Evaluate(body, body, skew, evalBudget, evals)
	if decided && peak > capacity {
		err = overflow(peak, capacity)
	}
	return peak, decided, err
}

func overflow(occ, capacity int64) error {
	return fmt.Errorf("skew: queue needs %d words but the hardware provides %d (queue overflow)", occ, capacity)
}
