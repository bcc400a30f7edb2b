package cellgen

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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

// buildModuloEdges constructs the dependences of a loop body block: the
// intra-iteration ones (blockEdges), then the inter-iteration ones.
// ok=false means the body has a construct the analysis cannot bound
// (non-parallel array subscripts), so the caller falls back to list
// scheduling.
func buildModuloEdges(b *ir.Block, loop *w2.ForStmt) (edges []mEdge, ok bool) {
	edges = blockEdges(b)
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
			// is a block edge; the pair bounds the overlap.
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

// resMII is the resource-constrained lower bound on II: the busiest
// reservation row's operations over the row's capacity.
func (g *blockGraph) resMII() int64 {
	ops := make([]int64, len(g.rowCap))
	for _, row := range g.row {
		ops[row]++
	}
	mii := int64(1)
	for row, c := range ops {
		capacity := int64(g.rowCap[row])
		mii = max(mii, (c+capacity-1)/capacity)
	}
	return mii
}

// cluster is a recurrence cluster — a strongly connected component of the
// dependence graph — holding two or more operations of one capacity-1
// unit.  Only there do the dependences bound the distance between two
// operations from both sides, which is what refuted needs.
type cluster struct {
	size  int
	edges []dEdge   // the edges inside, ends renumbered 0..size-1
	units [][]int32 // per capacity-1 unit with ≥ 2 operations here: their numbers
}

// initSearch makes the II search's state: the predecessor index, the
// per-node tables and the recurrence clusters.
func (g *blockGraph) initSearch() {
	n := len(g.nodes)
	g.pred = newAdjacency(n, g.edges, func(e dEdge) int32 { return e.to })
	g.off = make([]int64, n)
	g.lastTry = make([]int64, n)
	g.placed = make([]bool, n)
	g.findClusters()
}

// findClusters fills g.clusters: Kosaraju's two passes, over succ and
// then pred, keeping the components refuted can use.
func (g *blockGraph) findClusters() {
	n := len(g.nodes)
	seen := make([]bool, n)
	finish := make([]int32, 0, n)
	var forward func(m int32)
	forward = func(m int32) {
		seen[m] = true
		for _, e := range g.succ.of(m) {
			if to := g.edges[e].to; !seen[to] {
				forward(to)
			}
		}
		finish = append(finish, m)
	}
	for m := range g.nodes {
		if !seen[m] {
			forward(int32(m))
		}
	}

	comp := make([]int32, n)  // component number; 0 = not reached yet
	local := make([]int32, n) // position within the component
	var members []int32
	var backward func(m, c int32)
	backward = func(m, c int32) {
		comp[m] = c
		local[m] = int32(len(members))
		members = append(members, m)
		for _, e := range g.pred.of(m) {
			if from := g.edges[e].from; comp[from] == 0 {
				backward(from, c)
			}
		}
	}
	rowOps := make([][]int32, len(g.rowCap))
	maxSize := 0
	for i, c := n-1, int32(0); i >= 0; i-- {
		if comp[finish[i]] != 0 {
			continue
		}
		c++
		members = members[:0]
		backward(finish[i], c)
		if len(members) < 2 {
			continue
		}
		for _, m := range members {
			if row := g.row[m]; g.rowCap[row] == 1 {
				rowOps[row] = append(rowOps[row], local[m])
			}
		}
		cl := cluster{size: len(members)}
		for _, m := range members {
			ops := rowOps[g.row[m]]
			if len(ops) >= 2 {
				cl.units = append(cl.units, append([]int32(nil), ops...))
			}
			rowOps[g.row[m]] = ops[:0]
		}
		if cl.units == nil {
			continue
		}
		for _, m := range members {
			for _, e := range g.succ.of(m) {
				if ed := g.edges[e]; comp[ed.to] == c {
					cl.edges = append(cl.edges, dEdge{from: local[m], to: local[ed.to], lat: ed.lat, dist: ed.dist})
				}
			}
		}
		g.clusters = append(g.clusters, cl)
		maxSize = max(maxSize, cl.size)
	}
	g.dist = make([]int64, maxSize*maxSize)
}

// recurrenceBound is the recurrence-constrained lower bound on II: the
// smallest II ≥ from at which the dependences admit any schedule at all,
// i.e. no cycle has positive total weight lat − II·dist (Bellman-Ford
// longest paths; the weights only fall as II grows, so the first feasible
// II is the bound).  Below it tryModulo can only exhaust its budget
// evicting.
func (g *blockGraph) recurrenceBound(from, limit int64) int64 {
	start := g.off // scratch: tryModulo writes an offset before it reads one
	positiveCycle := func(ii int64) bool {
		clear(start)
		for round := 0; ; round++ {
			changed := false
			for _, e := range g.edges {
				if t := start[e.from] + e.lat - ii*e.dist; t > start[e.to] {
					start[e.to] = t
					changed = true
				}
			}
			if !changed {
				return false
			}
			if round >= len(g.nodes) {
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

// noPath marks an unreachable pair in refuted's matrix; far enough from
// the minimum that adding two of them does not wrap.
const noPath = math.MinInt64 / 4

// refuted reports whether the dependences and the capacity-1 units
// together rule out every schedule at ii.  In a recurrence cluster the
// all-pairs longest paths d (weights lat − II·dist, Floyd–Warshall) give
// each pair a window: t(j) − t(i) ≥ d(i,j) along the path i→j and
// t(i) − t(j) ≥ d(j,i) along j→i, so t(j) − t(i) ∈ [d(i,j), −d(j,i)] in
// any schedule.  Two operations of a capacity-1 unit must differ mod II,
// hence:
//
//   - a window holding only multiples of II refutes II;
//   - k operations pairwise within w cycles all issue inside w+1
//     consecutive cycles, which are min(w+1, II) distinct slots of the
//     unit: k above that refutes II.
//
// Both are necessary conditions, so nothing feasible is refuted.  ii must
// be at or above recurrenceBound: with no cycle of positive weight the
// paths are well defined and every window has lo ≤ hi.
func (g *blockGraph) refuted(ii int64) bool {
	for i := range g.clusters {
		c := &g.clusters[i]
		n := c.size
		d := g.dist[:n*n]
		for i := range d {
			d[i] = noPath
		}
		for i := 0; i < n; i++ {
			d[i*n+i] = 0
		}
		for _, e := range c.edges {
			if w := e.lat - ii*e.dist; w > d[int(e.from)*n+int(e.to)] {
				d[int(e.from)*n+int(e.to)] = w
			}
		}
		for k := 0; k < n; k++ {
			dk := d[k*n : k*n+n]
			for i := 0; i < n; i++ {
				ik := d[i*n+k]
				if ik == noPath {
					continue
				}
				di := d[i*n : i*n+n]
				for j, kj := range dk {
					if kj != noPath && ik+kj > di[j] {
						di[j] = ik + kj
					}
				}
			}
		}
		// The cluster is strongly connected, so every pair has a path
		// each way and both ends of its window are finite.
		window := func(i, j int32) (lo, hi int64) { return d[int(i)*n+int(j)], -d[int(j)*n+int(i)] }
		for _, ops := range c.units {
			for a, i := range ops {
				for _, j := range ops[a+1:] {
					if lo, hi := window(i, j); floorDiv(hi, ii)-floorDiv(lo-1, ii) == hi-lo+1 {
						return true // every distance the window allows is a multiple of II
					}
				}
			}
			for w := int64(1); w+2 <= int64(len(ops)); w++ {
				within := func(i, j int32) bool { lo, hi := window(i, j); return -w <= lo && hi <= w }
				if hasClique(ops, int(min64(w+1, ii))+1, within) {
					return true
				}
			}
		}
	}
	return false
}

// floorDiv is a/b rounded toward −∞, b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// hasClique reports whether size of the nodes are pairwise adjacent.
func hasClique(nodes []int32, size int, adjacent func(i, j int32) bool) bool {
	if size <= 0 {
		return true
	}
	for a, i := range nodes {
		if len(nodes)-a < size {
			return false
		}
		var rest []int32
		for _, j := range nodes[a+1:] {
			if adjacent(i, j) {
				rest = append(rest, j)
			}
		}
		if hasClique(rest, size-1, adjacent) {
			return true
		}
	}
	return false
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
func (g *blockGraph) tryModulo(ii int64, ls *prof.LoopSched) (*moduloResult, bool) {
	n := len(g.nodes)
	rows := len(g.rowCap)
	off, placed, lastTry := g.off, g.placed, g.lastTry
	clear(placed)
	clear(lastTry)
	// Modulo reservation table with eviction support: per residue and
	// row, the occupants.
	slots := int(ii) * rows
	if slots > len(g.occN) {
		g.occN = make([]uint8, slots)
		g.occ = make([]int32, slots*mcode.MemPorts)
	}
	occN := g.occN[:slots]
	clear(occN)
	occupants := func(m int32, t int64) (slot int, occ []int32) {
		slot = int(t%ii)*rows + int(g.row[m])
		return slot, g.occ[slot*mcode.MemPorts : (slot+1)*mcode.MemPorts]
	}

	unplaced := n
	cursor := 0 // no unplaced node has a rank below cursor
	unschedule := func(m int32) {
		if !placed[m] {
			return
		}
		ls.Evictions++
		slot, occ := occupants(m, off[m])
		k := int(occN[slot])
		for i := 0; i < k; i++ {
			if occ[i] == m {
				copy(occ[i:k-1], occ[i+1:k])
				break
			}
		}
		occN[slot]--
		placed[m] = false
		unplaced++
		cursor = min(cursor, int(g.rank[m]))
	}

	budget := (n + 4) * int(min64(ii, 64)) * 8
	for unplaced > 0 {
		if budget <= 0 {
			return nil, false
		}
		budget--
		ls.Placements++
		// Highest priority unscheduled op.
		for placed[g.order[cursor]] {
			cursor++
		}
		m := g.order[cursor]

		lo := int64(0)
		for _, e := range g.pred.of(m) {
			if e := &g.edges[e]; placed[e.from] {
				lo = max(lo, off[e.from]+e.lat-e.dist*ii)
			}
		}
		lo = max(lo, lastTry[m])
		// Find a free slot in the II-wide window, else force lo and
		// evict the occupants.
		t := int64(-1)
		for c := lo; c < lo+ii; c++ {
			if slot, _ := occupants(m, c); occN[slot] < g.rowCap[g.row[m]] {
				t = c
				break
			}
		}
		if t < 0 {
			t = lo
			slot, occ := occupants(m, t)
			for occN[slot] > 0 {
				unschedule(occ[0])
			}
		}
		off[m] = t
		slot, occ := occupants(m, t)
		occ[occN[slot]] = m
		occN[slot]++
		placed[m] = true
		unplaced--
		lastTry[m] = t + 1

		// Evict scheduled neighbours whose constraints the placement
		// violates.
		for _, e := range g.succ.of(m) {
			if e := &g.edges[e]; placed[e.to] && off[e.to]+e.dist*ii < t+e.lat {
				unschedule(e.to)
			}
		}
		for _, e := range g.pred.of(m) {
			if e := &g.edges[e]; placed[e.from] && t+e.dist*ii < off[e.from]+e.lat {
				unschedule(e.from)
			}
		}
	}

	// Normalize: eviction cycles can drift the whole schedule upward;
	// shift down by a multiple of II (which preserves residues and all
	// dependence slacks).
	shift := slices.Min(off) / ii * ii
	res := &moduloResult{ii: ii, off: make(map[*ir.Node]int64, n), nodes: slices.Clone(g.nodes)}
	for m, t := range off {
		res.off[g.nodes[m]] = t - shift
		res.span = max(res.span, t-shift+1)
	}
	slices.SortStableFunc(res.nodes, func(a, b *ir.Node) int {
		if c := cmp.Compare(res.off[a], res.off[b]); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return res, true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// moduloSchedule software-pipelines an innermost loop whose body is a
// single basic block: qualify, bound the II from below (by the units, the
// trip count, the recurrences, and the two together), search upward from
// there for the smallest II that schedules, check register demand, and
// emit prologue/kernel/epilogue.  No items means "fall back to a plain
// counted loop": around the body's list schedule when one is returned
// (the attempt got as far as building it).
func (g *gen) moduloSchedule(r *ir.LoopRegion, ls *prof.LoopSched) ([]mcode.CodeItem, *blockSchedule, error) {
	var br *ir.BlockRegion
	if len(r.Body) == 1 {
		br, _ = r.Body[0].(*ir.BlockRegion)
	}
	if br == nil {
		ls.Reason = "not an innermost single-block loop"
		return nil, nil, nil
	}
	edges, ok := buildModuloEdges(br.Block, r.Loop)
	if !ok {
		ls.Reason = "non-parallel array subscripts"
		return nil, nil, nil
	}
	lg, err := newBlockGraph(br.Block, edges)
	if err != nil {
		return nil, nil, err
	}
	// Baseline: the plain list schedule, the measure to beat and the
	// fallback.
	base := lg.listSchedule()
	lg.initSearch()

	trips := r.Trips()
	mii, reason := lg.lowerBound(lg.resMII(), trips, base.len)
	ls.MII = int(mii)
	if mii >= base.len {
		ls.Reason = reason
		return nil, base, nil
	}

	var outOfBudget int
	var rejects [numEmitRejects]int
	for ii := mii; ii < base.len; ii++ {
		if ii > mii && lg.refuted(ii) {
			continue
		}
		ls.Attempts++
		ms, ok := lg.tryModulo(ii, ls)
		if !ok {
			outOfBudget++
			continue
		}
		items, reject, err := g.emitModulo(r, ms)
		if err != nil {
			return nil, nil, err
		}
		if reject == emitOK {
			ls.II = int(ii)
			return items, nil, nil
		}
		// Register pressure or trip count rejected this II; a larger II
		// lowers the overlap, so keep searching.
		ls.EmitRejects++
		rejects[reject]++
	}
	ls.Reason = fmt.Sprintf("no II in [%d, %d) accepted: %d out of eviction budget, %d register pressure, %d too few trips",
		mii, base.len, outOfBudget, rejects[rejectRegisters], rejects[rejectTrips])
	return nil, base, nil
}

// lowerBound is the first II the search need try: the largest of four
// sound lower bounds.  At or above limit (the list schedule's length)
// pipelining cannot win, and reason says which bound ruled it out.
//
//   - resources: a unit issues one operation a cycle (resMII);
//   - trip count: emitModulo needs S = ⌈span/II⌉ ≤ trips stages, and any
//     schedule has span ≥ critical path + 1 (the dist-0 chain fits inside
//     one iteration's offsets), so II ≥ ⌈(critical path + 1)/trips⌉;
//   - recurrences: no dependence cycle of positive weight (recurrenceBound);
//   - recurrences and capacity-1 units together (refuted).
func (g *blockGraph) lowerBound(res, trips, limit int64) (mii int64, reason string) {
	if need := (g.crit + trips) / trips; need > res {
		if need >= limit {
			return need, fmt.Sprintf("trip count %d allows no II below the list schedule (needs ≥ %d)", trips, need)
		}
		res = need
	}
	mii = g.recurrenceBound(res, limit)
	for mii < limit && g.refuted(mii) {
		mii++
	}
	return mii, fmt.Sprintf("recurrence and resources need II ≥ %d", mii)
}
