package cellgen

import (
	"sort"

	"warp/internal/ir"
	"warp/internal/mcode"
	"warp/internal/prof"
)

// This file keeps the modulo scheduler as it was before it moved onto
// dense tables — every table a Go map keyed by *ir.Node or resKey — as
// the oracle of TestModuloScheduleMatchesReference and of the II-bound
// tests.  It is the parent commit's code verbatim except for the names
// (ref…) and refTryModulo's budgetScale, which lets the bound tests show
// that a skipped II is not merely one the eviction budget gave up on.

// refRecurrenceBound is the recurrence-constrained lower bound on II: the
// smallest II ≥ from at which the dependences among the scheduled
// operations admit any schedule at all, i.e. no cycle has positive total
// weight lat − II·dist (Bellman-Ford longest paths; the weights only
// fall as II grows, so the first feasible II is the bound).  Below it
// tryModulo can only exhaust its budget evicting.
func refRecurrenceBound(b *ir.Block, edges []mEdge, from, limit int64) int64 {
	var live []mEdge
	for _, e := range edges {
		if needsInstr(e.from) && needsInstr(e.to) {
			live = append(live, e)
		}
	}
	start := map[*ir.Node]int64{}
	positiveCycle := func(ii int64) bool {
		clear(start)
		for round := 0; ; round++ {
			changed := false
			for _, e := range live {
				if t := start[e.from] + e.lat - ii*e.dist; t > start[e.to] {
					start[e.to] = t
					changed = true
				}
			}
			if !changed {
				return false
			}
			if round > len(b.Nodes) {
				return true
			}
		}
	}
	ii := from
	for ii < limit && positiveCycle(ii) {
		ii++
	}
	return ii
}

// refModuloResult is a successful kernel schedule.
type refModuloResult struct {
	ii    int64
	off   map[*ir.Node]int64 // flat offsets o(n)
	span  int64              // max o + 1
	nodes []*ir.Node         // scheduled nodes, by offset then ID
}

// refTryModulo attempts to find a kernel schedule at the given II using a
// simplified form of Rau's iterative modulo scheduling: operations are
// placed highest-priority first; when no slot in the II-wide window is
// free, a conflicting operation is evicted and rescheduled, within a
// fixed budget.  Eviction is what lets recurrence clusters (for
// example, a carried scalar's move tied to its consumer's cycle)
// converge where one-pass greedy placement deadlocks.
func refTryModulo(b *ir.Block, edges []mEdge, ii int64, ls *prof.LoopSched, budgetScale int) (*refModuloResult, bool) {
	succ := map[*ir.Node][]mEdge{}
	pred := map[*ir.Node][]mEdge{}
	for _, e := range edges {
		succ[e.from] = append(succ[e.from], e)
		pred[e.to] = append(pred[e.to], e)
	}

	var sched []*ir.Node
	for _, n := range b.Nodes {
		if needsInstr(n) {
			sched = append(sched, n)
		}
	}
	height := map[*ir.Node]int64{}
	// Longest path over dist-0 edges (acyclic by construction); iterate
	// to fixpoint, bounded by the node count as a cycle safeguard.
	for round := 0; round <= len(b.Nodes)+1; round++ {
		changed := false
		for _, e := range edges {
			if e.dist != 0 {
				continue
			}
			if h := e.lat + height[e.to]; h > height[e.from] {
				height[e.from] = h
				changed = true
			}
		}
		if !changed {
			break
		}
		if round == len(b.Nodes)+1 {
			return nil, false // dist-0 cycle: malformed block
		}
	}

	res := &refModuloResult{ii: ii, off: map[*ir.Node]int64{}}

	// Modulo reservation tables with eviction support: per residue, the
	// occupants of each unit.
	type resKey struct {
		res  int64
		unit unit
		port portKey
	}
	occupants := map[resKey][]*ir.Node{}
	keyOf := func(n *ir.Node, t int64) resKey {
		k := resKey{res: t % ii, unit: unitOf(n)}
		if k.unit == unitIO {
			k.port = portOf(n)
		}
		return k
	}
	capOf := func(u unit) int {
		if u == unitMem {
			return mcode.MemPorts
		}
		return 1
	}

	unsched := map[*ir.Node]bool{}
	for _, n := range sched {
		unsched[n] = true
	}
	lastTry := map[*ir.Node]int64{}

	unschedule := func(n *ir.Node) {
		t, ok := res.off[n]
		if !ok {
			return
		}
		ls.Evictions++
		k := keyOf(n, t)
		occ := occupants[k]
		for i, m := range occ {
			if m == n {
				occupants[k] = append(occ[:i:i], occ[i+1:]...)
				break
			}
		}
		delete(res.off, n)
		unsched[n] = true
	}

	budget := (len(sched) + 4) * int(min64(ii, 64)) * 8 * budgetScale
	for len(unsched) > 0 {
		if budget <= 0 {
			return nil, false
		}
		budget--
		ls.Placements++
		// Highest priority unscheduled op.
		var n *ir.Node
		for m := range unsched {
			if n == nil || height[m] > height[n] ||
				(height[m] == height[n] && m.ID < n.ID) {
				n = m
			}
		}

		lo := int64(0)
		for _, e := range pred[n] {
			if t, ok := res.off[e.from]; ok {
				if v := t + e.lat - e.dist*ii; v > lo {
					lo = v
				}
			}
		}
		if lt := lastTry[n]; lt > lo {
			lo = lt
		}
		// Find a free slot in the II-wide window, else force lo and
		// evict the occupants.
		t := int64(-1)
		for c := lo; c < lo+ii; c++ {
			k := keyOf(n, c)
			if len(occupants[k]) < capOf(k.unit) {
				t = c
				break
			}
		}
		forced := t < 0
		if forced {
			t = lo
			k := keyOf(n, t)
			for _, victim := range append([]*ir.Node(nil), occupants[k]...) {
				unschedule(victim)
			}
		}
		res.off[n] = t
		k := keyOf(n, t)
		occupants[k] = append(occupants[k], n)
		delete(unsched, n)
		lastTry[n] = t + 1

		// Evict scheduled neighbours whose constraints the placement
		// violates.
		for _, e := range succ[n] {
			if ts, ok := res.off[e.to]; ok && ts+e.dist*ii < t+e.lat {
				unschedule(e.to)
			}
		}
		for _, e := range pred[n] {
			if tp, ok := res.off[e.from]; ok && t+e.dist*ii < tp+e.lat {
				unschedule(e.from)
			}
		}
	}

	// Normalize: eviction cycles can drift the whole schedule upward;
	// shift down by a multiple of II (which preserves residues and all
	// dependence slacks).
	minOff := int64(1) << 62
	for _, t := range res.off {
		if t < minOff {
			minOff = t
		}
	}
	if shift := (minOff / ii) * ii; shift > 0 {
		for n := range res.off {
			res.off[n] -= shift
		}
	}
	for _, t := range res.off {
		if t+1 > res.span {
			res.span = t + 1
		}
	}
	res.nodes = append(res.nodes, sched...)
	sort.SliceStable(res.nodes, func(i, j int) bool {
		ti, tj := res.off[res.nodes[i]], res.off[res.nodes[j]]
		if ti != tj {
			return ti < tj
		}
		return res.nodes[i].ID < res.nodes[j].ID
	})
	return res, true
}
