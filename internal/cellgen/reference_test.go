package cellgen

import (
	"fmt"
	"sort"

	"warp/internal/ir"
	"warp/internal/mcode"
	"warp/internal/prof"
	"warp/internal/w2"
)

// This file keeps both schedulers as they were before they moved onto
// dense tables — every table a Go map keyed by *ir.Node, portKey or
// resKey.  The list scheduler (refBuildEdges, refListSchedule) is the
// oracle of TestListScheduleMatchesReference; the modulo scheduler is the
// oracle of TestModuloScheduleMatchesReference and of the II-bound tests.
// Both are the code they replaced verbatim except for the names (ref…)
// and refTryModulo's budgetScale, which lets the bound tests show that a
// skipped II is not merely one the eviction budget gave up on.

// refEdge is a scheduling dependence with a minimum issue distance.
type refEdge struct {
	to  *ir.Node
	lat int64
}

// refBuildEdges constructs the scheduling dependence graph of a block:
// operand edges, explicit ordering edges, and home-register
// anti-dependences (every consumer of an OpRead must issue no later
// than the OpWrite that overwrites the scalar's home register).
func refBuildEdges(b *ir.Block) map[*ir.Node][]refEdge {
	succ := make(map[*ir.Node][]refEdge)
	reads := make(map[*w2.Symbol][]*ir.Node)
	for _, n := range b.Nodes {
		if n.Op == ir.OpRead {
			reads[n.Sym] = append(reads[n.Sym], n)
		}
	}
	for _, n := range b.Nodes {
		for _, a := range n.Args {
			succ[a] = append(succ[a], refEdge{to: n, lat: resultLatency(a)})
		}
		for _, d := range n.Deps {
			succ[d] = append(succ[d], refEdge{to: n, lat: depLatency(d, n)})
		}
		if n.Op == ir.OpWrite {
			// Home-register anti-dependence: the write lands one cycle
			// after issue, so consumers of the old value must issue no
			// later than the write.
			for _, r := range reads[n.Sym] {
				for _, m := range b.Nodes {
					if m == n {
						continue
					}
					for _, a := range m.Args {
						if a == r {
							succ[m] = append(succ[m], refEdge{to: n, lat: 0})
						}
					}
				}
			}
		}
	}
	return succ
}

// refListSchedule schedules the block's nodes cycle by cycle.
func refListSchedule(b *ir.Block) (*blockSchedule, error) {
	succ := refBuildEdges(b)

	// Topological order (opt passes may have rewired args out of
	// creation order).
	indeg := make(map[*ir.Node]int)
	for _, n := range b.Nodes {
		indeg[n] += 0
		for _, e := range succ[n] {
			indeg[e.to]++
		}
	}
	var topo []*ir.Node
	var ready []*ir.Node
	for _, n := range b.Nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		topo = append(topo, n)
		for _, e := range succ[n] {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				ready = append(ready, e.to)
			}
		}
	}
	if len(topo) != len(b.Nodes) {
		return nil, fmt.Errorf("cellgen: dependence cycle in block b%d", b.ID)
	}

	// Priority: latency-weighted height (critical path to a sink).
	height := make(map[*ir.Node]int64)
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		var h int64
		for _, e := range succ[n] {
			if v := e.lat + height[e.to]; v > h {
				h = v
			}
		}
		height[n] = h
	}

	// Earliest start driven by scheduled predecessors.
	pred := make(map[*ir.Node][]struct {
		from *ir.Node
		lat  int64
	})
	for n, es := range succ {
		for _, e := range es {
			pred[e.to] = append(pred[e.to], struct {
				from *ir.Node
				lat  int64
			}{n, e.lat})
		}
	}

	sched := &blockSchedule{block: b, issue: make(map[*ir.Node]int64)}
	unscheduled := make(map[*ir.Node]bool)
	for _, n := range b.Nodes {
		if needsInstr(n) {
			unscheduled[n] = true
		} else {
			sched.issue[n] = 0 // available at block entry
		}
	}

	// Resource tables.
	addBusy := map[int64]bool{}
	mulBusy := map[int64]bool{}
	movBusy := map[int64]bool{}
	memBusy := map[int64]int{}
	ioBusy := map[int64]map[portKey]bool{}

	earliest := func(n *ir.Node) int64 {
		var t int64
		for _, p := range pred[n] {
			if !needsInstr(p.from) {
				continue // ready at block entry
			}
			it, ok := sched.issue[p.from]
			if !ok {
				return -1 // predecessor not scheduled yet
			}
			if v := it + p.lat; v > t {
				t = v
			}
		}
		return t
	}

	fits := func(n *ir.Node, t int64) bool {
		switch unitOf(n) {
		case unitAdd:
			return !addBusy[t]
		case unitMul:
			return !mulBusy[t]
		case unitMov:
			return !movBusy[t]
		case unitMem:
			return memBusy[t] < mcode.MemPorts
		case unitIO:
			m := ioBusy[t]
			return m == nil || !m[portOf(n)]
		}
		return true
	}
	take := func(n *ir.Node, t int64) {
		switch unitOf(n) {
		case unitAdd:
			addBusy[t] = true
		case unitMul:
			mulBusy[t] = true
		case unitMov:
			movBusy[t] = true
		case unitMem:
			memBusy[t]++
		case unitIO:
			if ioBusy[t] == nil {
				ioBusy[t] = map[portKey]bool{}
			}
			ioBusy[t][portOf(n)] = true
		}
	}

	for t := int64(0); len(unscheduled) > 0; t++ {
		if t > int64(len(b.Nodes))*64+1024 {
			return nil, fmt.Errorf("cellgen: scheduler did not converge in block b%d", b.ID)
		}
		// Candidates ready at cycle t, by priority.
		var cands []*ir.Node
		for n := range unscheduled {
			e := earliest(n)
			if e >= 0 && e <= t {
				cands = append(cands, n)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if height[cands[i]] != height[cands[j]] {
				return height[cands[i]] > height[cands[j]]
			}
			return cands[i].ID < cands[j].ID
		})
		for _, n := range cands {
			if fits(n, t) {
				sched.issue[n] = t
				take(n, t)
				delete(unscheduled, n)
				sched.nodes = append(sched.nodes, n)
			}
		}
	}

	// The block must extend past every in-flight result: a pipelined
	// write landing after the last issue would otherwise cross into the
	// next block (or the next loop iteration) and clobber a reused
	// register there.
	for _, n := range sched.nodes {
		end := sched.issue[n] + 1
		if lat := resultLatency(n); lat > 1 {
			end = sched.issue[n] + lat
		}
		if end > sched.len {
			sched.len = end
		}
	}
	sort.SliceStable(sched.nodes, func(i, j int) bool {
		ti, tj := sched.issue[sched.nodes[i]], sched.issue[sched.nodes[j]]
		if ti != tj {
			return ti < tj
		}
		return sched.nodes[i].ID < sched.nodes[j].ID
	})
	return sched, nil
}

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
