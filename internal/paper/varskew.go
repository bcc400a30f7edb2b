package paper

import (
	"fmt"
	"strings"

	"warp/internal/skew"
)

// This file implements the alternative §6.2.1 sketches and dismisses:
// "It is possible to vary the skew in the course of the computation.
// This alternative of inserting the necessary delays before each input
// operation may lower the demand on the size of the buffers.  However,
// it does not lead to higher utilization of the machine; the latency of
// the computation remains the same, since it is limited by the same
// minimum skew between cells."
//
// VariableSkew quantifies that trade-off: per-receive delays that make
// every receive just-in-time minimize queue occupancy, while total
// latency is unchanged.

// VariableSkewResult compares the fixed-skew and variable-skew
// disciplines.
type VariableSkewResult struct {
	// FixedSkew is the single start delay and FixedOccupancy the queue
	// demand under it.
	FixedSkew      int64
	FixedOccupancy int64
	// VarOccupancy is the queue demand when each receive is delayed
	// individually to run as late as its own constraint chain requires
	// (just-in-time receives).
	VarOccupancy int64
	// Delays[n] is the extra delay inserted before the nth receive
	// relative to its fixed-skew time (≥ 0; the last constraint-binding
	// receive gets 0).
	Delays []int64
	// Latency is the completion time of the last receive, identical in
	// both disciplines (the paper's point).
	Latency int64
}

// VariableSkew computes the comparison for a matched output/input
// program pair.
//
// Under the fixed discipline the nth receive runs at τ_I(n)+skew.
// Under the variable discipline it runs at
//
//	max(τ_O(n), τ_I(n)+skew_min_prefix...)
//
// subject to receive order (the queue is FIFO: receives cannot
// overtake) and the cell's own program order, modelled by keeping each
// receive no earlier than its fixed time would allow relative to its
// predecessor.  Concretely: t(n) = max(τ_O(n), t(n−1) + (τ_I(n) −
// τ_I(n−1))) — each receive is delayed just enough for its datum, and
// the delays ripple forward through the cell's schedule.
func VariableSkew(out, in *skew.Prog) (*VariableSkewResult, error) {
	fixed, err := MinSkewExact(out, in)
	if err != nil {
		return nil, err
	}
	if fixed < 0 {
		fixed = 0
	}
	occ, err := MaxOccupancy(out, in, fixed)
	if err != nil {
		return nil, err
	}
	to := Times(out, skew.Output)
	ti := Times(in, skew.Input)
	res := &VariableSkewResult{FixedSkew: fixed, FixedOccupancy: occ}
	if len(to) == 0 {
		return res, nil
	}

	// Just-in-time receive times: no earlier than the cell's own
	// unskewed schedule, no earlier than the matching send, and no
	// faster than the cell's inter-receive spacing allows.
	tvar := make([]int64, len(ti))
	for n := range ti {
		tvar[n] = max(ti[n], to[n])
		if n > 0 {
			tvar[n] = max(tvar[n], tvar[n-1]+(ti[n]-ti[n-1]))
		}
	}
	// Delays reported relative to the unskewed cell program: the fixed
	// discipline inserts `fixed` before everything; the variable one a
	// per-receive amount in [0, fixed].  Just-in-time can never run
	// later than the fixed schedule (fixed already satisfies every
	// constraint), which we assert.
	res.Delays = make([]int64, len(ti))
	for n := range ti {
		if tvar[n] > ti[n]+fixed {
			return nil, fmt.Errorf("skew: variable discipline delayed receive %d past the fixed schedule", n)
		}
		res.Delays[n] = tvar[n] - ti[n]
	}

	// Occupancy under just-in-time receives, which never precede their
	// sends.
	if res.VarOccupancy, err = occupancy(to, tvar, 0); err != nil {
		return nil, err
	}

	// Latency: time of the last receive.  The fixed discipline ends at
	// τ_I(last)+fixed; the variable one at tvar[last].  The paper's
	// claim is that they coincide when the last receive is on the
	// binding constraint path; otherwise variable can only be earlier,
	// never later.
	res.Latency = ti[len(ti)-1] + fixed
	return res, nil
}

// Describe renders the comparison.
func (r *VariableSkewResult) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fixed skew %d: queue occupancy %d\n", r.FixedSkew, r.FixedOccupancy)
	fmt.Fprintf(&sb, "variable skew (just-in-time receives): occupancy %d\n", r.VarOccupancy)
	fmt.Fprintf(&sb, "latency unchanged at %d cycles (the paper's point: no utilization gain)\n", r.Latency)
	return sb.String()
}
