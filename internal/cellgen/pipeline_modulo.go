package cellgen

import (
	"sort"

	"warp/internal/ir"
	"warp/internal/mcode"
	"warp/internal/prof"
	"warp/internal/w2"
)

// This file implements software pipelining of innermost loops: modulo
// scheduling with modulo variable expansion.  The paper's cell
// scheduler builds on the throughput-oriented pipeline scheduling of
// Patel/Davidson and Rau/Glaeser (§6.2); this is what lets the array
// reach the "one result per cycle" throughput quoted for 1-d
// convolution and polynomial evaluation.
//
// Overview: all iterations share one kernel schedule of II (initiation
// interval) cycles; iteration k's operation n executes at the flat time
// k·II + o(n).  Values that stay live longer than II cycles get one
// register per overlapped iteration: the kernel is unrolled u times
// with registers renamed per copy (modulo variable expansion).  Scalars
// carried across iterations stay in their home registers; the schedule
// constrains their read to precede the overwriting move of the same
// flat cycle pattern, so they need no expansion.

// mEdge is a modulo-scheduling dependence: to must start no earlier
// than from's start plus lat, dist iterations later:
//
//	t(to) + dist·II ≥ t(from) + lat.
type mEdge struct {
	from, to *ir.Node
	lat      int64
	dist     int64
}

// buildModuloEdges constructs intra- and inter-iteration dependences of
// a loop body block.  ok=false means the body has a construct the
// analysis cannot bound (non-parallel array subscripts), so the caller
// falls back to list scheduling.
func buildModuloEdges(b *ir.Block, loop *w2.ForStmt) (edges []mEdge, ok bool) {
	add := func(from, to *ir.Node, lat, dist int64) {
		edges = append(edges, mEdge{from: from, to: to, lat: lat, dist: dist})
	}

	reads := map[*w2.Symbol]*ir.Node{}
	writes := map[*w2.Symbol]*ir.Node{}
	for _, n := range b.Nodes {
		switch n.Op {
		case ir.OpRead:
			reads[n.Sym] = n
		case ir.OpWrite:
			writes[n.Sym] = n
		}
	}

	// Intra-iteration operand and ordering edges (as in list
	// scheduling).
	for _, n := range b.Nodes {
		for _, a := range n.Args {
			if needsInstr(a) {
				add(a, n, resultLatency(a), 0)
			}
		}
		for _, d := range n.Deps {
			if needsInstr(d) {
				add(d, n, depLatency(d, n), 0)
			}
		}
		if n.Op == ir.OpWrite {
			// Consumers of the old value must issue no later than the
			// overwriting move (this cycle's read still sees the old
			// home-register value).
			if r := reads[n.Sym]; r != nil {
				for _, m := range b.Nodes {
					if m == n {
						continue
					}
					for _, a := range m.Args {
						if a == r {
							add(m, n, 0, 0)
						}
					}
				}
			}
		}
	}

	// Carried scalar flow: write(k) → read(k+1), one cycle for the move
	// to land.  Symbols are visited in block order, not map order: the
	// edge list's order seeds the scheduler's eviction sequence, so it
	// must be identical on every compile of the same source.
	seenW := map[*w2.Symbol]bool{}
	for _, n := range b.Nodes {
		if n.Op != ir.OpWrite || seenW[n.Sym] {
			continue
		}
		seenW[n.Sym] = true
		sym, w := n.Sym, writes[n.Sym]
		if r := reads[sym]; r != nil {
			for _, m := range b.Nodes {
				for _, a := range m.Args {
					if a == r {
						add(w, m, 1, 1)
					}
				}
			}
			// And the next iteration's write must not land before this
			// iteration's consumers read: t_w ≥ t_consumer (dist 0)
			// already added above; the pair bounds the overlap.
		}
	}

	// Carried queue order: per port, last op (k) before first op (k+1).
	// Ports are visited in first-encounter order for the same reason as
	// the carried-scalar loop above.
	type portOps struct{ first, last *ir.Node }
	ports := map[portKey]*portOps{}
	var portOrder []portKey
	for _, n := range b.Nodes {
		if !n.Op.IsIO() {
			continue
		}
		k := portOf(n)
		p := ports[k]
		if p == nil {
			ports[k] = &portOps{first: n, last: n}
			portOrder = append(portOrder, k)
		} else {
			p.last = n
		}
	}
	for _, k := range portOrder {
		add(ports[k].last, ports[k].first, 1, 1)
	}

	// Carried memory dependences with affine disambiguation.
	var mems []*ir.Node
	for _, n := range b.Nodes {
		if n.Op.IsMem() {
			mems = append(mems, n)
		}
	}
	for _, a := range mems {
		for _, bn := range mems {
			if a.Op == ir.OpLoad && bn.Op == ir.OpLoad {
				continue
			}
			if a.Sym != bn.Sym {
				continue
			}
			// Distance d ≥ 1 at which a(k) and bn(k+d) collide.
			diff := a.Addr.Sub(bn.Addr)
			if !diff.IsConst() {
				return nil, false // non-parallel subscripts: give up
			}
			stride := a.Addr.Coef(loop)
			c := diff.Const
			switch {
			case stride == 0:
				if c == 0 {
					add(a, bn, depLatency(a, bn), 1)
				}
				// distinct fixed addresses: no conflict
			case c%stride == 0:
				if d := c / stride; d >= 1 {
					add(a, bn, depLatency(a, bn), d)
				}
			}
		}
	}
	return edges, true
}

// resMII is the resource-constrained lower bound on II.
func resMII(b *ir.Block) int64 {
	var adds, muls, movs, memrefs int64
	portCount := map[portKey]int64{}
	for _, n := range b.Nodes {
		switch unitOf(n) {
		case unitAdd:
			adds++
		case unitMul:
			muls++
		case unitMov:
			movs++
		case unitMem:
			memrefs++
		case unitIO:
			portCount[portOf(n)]++
		}
	}
	mii := int64(1)
	maxi := func(v int64) {
		if v > mii {
			mii = v
		}
	}
	maxi(adds)
	maxi(muls)
	maxi(movs)
	maxi((memrefs + mcode.MemPorts - 1) / mcode.MemPorts)
	for _, c := range portCount {
		maxi(c)
	}
	return mii
}

// recurrenceBound is the recurrence-constrained lower bound on II: the
// smallest II ≥ from at which the dependences among the scheduled
// operations admit any schedule at all, i.e. no cycle has positive total
// weight lat − II·dist (Bellman-Ford longest paths; the weights only
// fall as II grows, so the first feasible II is the bound).  Below it
// tryModulo can only exhaust its budget evicting.
func recurrenceBound(b *ir.Block, edges []mEdge, from, limit int64) int64 {
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

// moduloResult is a successful kernel schedule.
type moduloResult struct {
	ii    int64
	off   map[*ir.Node]int64 // flat offsets o(n)
	span  int64              // max o + 1
	nodes []*ir.Node         // scheduled nodes, by offset then ID
}

// tryModulo attempts to find a kernel schedule at the given II using a
// simplified form of Rau's iterative modulo scheduling: operations are
// placed highest-priority first; when no slot in the II-wide window is
// free, a conflicting operation is evicted and rescheduled, within a
// fixed budget.  Eviction is what lets recurrence clusters (for
// example, a carried scalar's move tied to its consumer's cycle)
// converge where one-pass greedy placement deadlocks.
func tryModulo(b *ir.Block, edges []mEdge, ii int64, ls *prof.LoopSched) (*moduloResult, bool) {
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

	res := &moduloResult{ii: ii, off: map[*ir.Node]int64{}}

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

	budget := (len(sched) + 4) * int(min64(ii, 64)) * 8
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

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// moduloSchedule orchestrates: qualify, search for the smallest
// feasible II from the larger of the resource and recurrence bounds
// up, check register demand, and emit
// prologue/kernel/epilogue.  ok=false means "fall back to a plain
// counted loop".
func (g *gen) moduloSchedule(r *ir.LoopRegion, b *ir.Block, ls *prof.LoopSched) ([]mcode.CodeItem, bool, error) {
	// Baseline: the plain list schedule (also the fallback measure).
	base, err := listSchedule(b)
	if err != nil {
		return nil, false, err
	}
	edges, ok := buildModuloEdges(b, r.Loop)
	if !ok {
		ls.Reason = "non-parallel array subscripts"
		return nil, false, nil
	}

	trips := r.Trips()
	mii := recurrenceBound(b, edges, resMII(b), base.len)
	ls.MII = int(mii)

	for ii := mii; ii < base.len; ii++ {
		ls.Attempts++
		ms, ok := tryModulo(b, edges, ii, ls)
		if !ok {
			continue
		}
		items, ok, err := g.emitModulo(r, b, ms, trips)
		if err != nil {
			return nil, false, err
		}
		if ok {
			ls.II = int(ii)
			return items, true, nil
		}
		// Register pressure or trip count rejected this II; a larger II
		// lowers the overlap, so keep searching.
		ls.EmitRejects++
	}
	ls.Reason = "no feasible II below the list schedule"
	return nil, false, nil
}
