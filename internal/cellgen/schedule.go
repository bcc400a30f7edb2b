package cellgen

import (
	"cmp"
	"fmt"
	"slices"

	"warp/internal/ir"
	"warp/internal/mcode"
	"warp/internal/w2"
)

// This file builds a block's scheduling problem on dense tables — the
// one dependence graph both the list scheduler and the modulo scheduler
// read — and list-schedules the block onto the cell's microinstruction
// word.

// resultLatency returns the cycles from a node's issue until its result
// register is readable (0 for operands available at block entry).
func resultLatency(n *ir.Node) int64 {
	switch n.Op {
	case ir.OpConst, ir.OpRead:
		return 0 // pre-loaded in a dedicated register
	case ir.OpRecv, ir.OpLoad, ir.OpWrite:
		return 1
	case ir.OpFadd, ir.OpFsub, ir.OpFmul, ir.OpFdiv, ir.OpFneg,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpAnd, ir.OpOr, ir.OpNot, ir.OpSelect:
		return mcode.FPULatency
	}
	return 0
}

// depLatency returns the scheduling distance of an explicit ordering
// edge.
func depLatency(from, to *ir.Node) int64 {
	switch {
	case from.Op.IsIO() && to.Op.IsIO():
		return 1 // queue operations on one port stay strictly ordered
	case from.Op == ir.OpStore:
		return 1 // a dependent access sees memory one cycle later
	default:
		return 0 // anti-dependences may share the cycle
	}
}

// needsInstr reports whether the node occupies an instruction field.
func needsInstr(n *ir.Node) bool {
	switch n.Op {
	case ir.OpConst, ir.OpRead:
		return false
	}
	return true
}

// unit identifies the resource a node occupies.
type unit int

const (
	unitNone unit = iota
	unitAdd
	unitMul
	unitMov
	unitMem
	unitIO
)

func unitOf(n *ir.Node) unit {
	switch n.Op {
	case ir.OpFadd, ir.OpFsub, ir.OpFneg, ir.OpEq, ir.OpNe, ir.OpLt,
		ir.OpLe, ir.OpGt, ir.OpGe, ir.OpAnd, ir.OpOr, ir.OpNot,
		ir.OpSelect:
		return unitAdd
	case ir.OpWrite:
		return unitMov
	case ir.OpFmul, ir.OpFdiv:
		return unitMul
	case ir.OpLoad, ir.OpStore:
		return unitMem
	case ir.OpRecv, ir.OpSend:
		return unitIO
	}
	return unitNone
}

// portKey identifies one queue port.
type portKey struct {
	recv bool
	dir  w2.Direction
	ch   w2.Channel
}

func portOf(n *ir.Node) portKey {
	return portKey{recv: n.Op == ir.OpRecv, dir: n.Dir, ch: n.Chan}
}

// mEdge is a scheduling dependence: to must start no earlier than from's
// start plus lat, dist iterations later:
//
//	t(to) + dist·II ≥ t(from) + lat.
//
// Every dependence within one block has dist 0; only a loop body's
// carried edges (buildModuloEdges) reach into later iterations.
type mEdge struct {
	from, to *ir.Node
	lat      int64
	dist     int64
}

// blockEdges constructs the dependences within one block between the
// nodes that issue: operand edges, explicit ordering edges, and
// home-register anti-dependences (every consumer of an OpRead must issue
// no later than the OpWrite that overwrites the scalar's home register).
func blockEdges(b *ir.Block) []mEdge {
	var edges []mEdge
	add := func(from, to *ir.Node, lat int64) {
		edges = append(edges, mEdge{from: from, to: to, lat: lat})
	}
	reads := map[*w2.Symbol]*ir.Node{}
	for _, n := range b.Nodes {
		if n.Op == ir.OpRead {
			reads[n.Sym] = n
		}
	}
	for _, n := range b.Nodes {
		for _, a := range n.Args {
			if needsInstr(a) {
				add(a, n, resultLatency(a))
			}
		}
		for _, d := range n.Deps {
			if needsInstr(d) {
				add(d, n, depLatency(d, n))
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
							add(m, n, 0)
						}
					}
				}
			}
		}
	}
	return edges
}

// dEdge is an mEdge between two scheduled nodes, by node number.
type dEdge struct {
	from, to  int32
	lat, dist int64
}

// adjacency lists edge numbers per node in CSR form: node n's edges are
// idx[start[n]:start[n+1]], in edge-list order.
type adjacency struct{ start, idx []int32 }

func (a adjacency) of(n int32) []int32 { return a.idx[a.start[n]:a.start[n+1]] }

// newAdjacency indexes edges by the end that end picks.
func newAdjacency(n int, edges []dEdge, end func(dEdge) int32) adjacency {
	a := adjacency{start: make([]int32, n+1), idx: make([]int32, len(edges))}
	for _, e := range edges {
		a.start[end(e)+1]++
	}
	for i := 0; i < n; i++ {
		a.start[i+1] += a.start[i]
	}
	next := append([]int32(nil), a.start[:n]...)
	for i, e := range edges {
		k := end(e)
		a.idx[next[k]] = int32(i)
		next[k]++
	}
	return a
}

// blockGraph is one block's scheduling problem on dense tables, built
// once per block.  The scheduled nodes (those that occupy an instruction
// field) are numbered in block order, and everything a scheduler touches
// per placement — edges, priorities, reservation rows, issue cycles and
// offsets — is a slice over those numbers: no map is read after
// newBlockGraph returns.  The list scheduler reads the dist-0 edges; a
// loop body's graph also holds the carried edges the II search reads, at
// every II it looks at.
type blockGraph struct {
	block  *ir.Block
	nodes  []*ir.Node
	edges  []dEdge // blockEdges' order, then the carried ones: it seeds the eviction sequence
	succ   adjacency
	row    []int32 // reservation-table row per node: its unit, or its queue port
	rowCap []uint8 // operations a row holds per cycle
	crit   int64   // critical path of one iteration: the longest dist-0 chain
	order  []int32 // nodes by priority: height descending, then ID ascending
	rank   []int32 // inverse of order

	// II search state, made by initSearch; reset by every tryModulo /
	// recurrenceBound / refuted.
	pred         adjacency
	clusters     []cluster
	off, lastTry []int64
	placed       []bool
	occ          []int32 // (slot·rows + row)·MemPorts + k: the k-th occupant
	occN         []uint8 // occupants per (slot, row); both grow with the II asked for
	dist         []int64 // refuted's longest-path matrix, largest cluster squared
}

// newBlockGraph numbers the block's scheduled nodes and builds the
// tables.  A cycle of dist-0 edges is an error: no schedule meets it.
func newBlockGraph(b *ir.Block, edges []mEdge) (*blockGraph, error) {
	g := &blockGraph{block: b}
	index := make(map[*ir.Node]int32, len(b.Nodes))
	ports := map[portKey]int32{}
	rows := int32(unitIO)
	for _, n := range b.Nodes {
		if !needsInstr(n) {
			continue
		}
		index[n] = int32(len(g.nodes))
		g.nodes = append(g.nodes, n)
		row := int32(unitOf(n))
		if row == int32(unitIO) {
			p, ok := ports[portOf(n)]
			if !ok {
				p = rows
				ports[portOf(n)] = p
				rows++
			}
			row = p
		}
		g.row = append(g.row, row)
	}
	n := len(g.nodes)
	g.rowCap = make([]uint8, rows)
	for i := range g.rowCap {
		g.rowCap[i] = 1
	}
	g.rowCap[unitMem] = mcode.MemPorts

	g.edges = make([]dEdge, len(edges))
	for i, e := range edges {
		g.edges[i] = dEdge{from: index[e.from], to: index[e.to], lat: e.lat, dist: e.dist}
	}
	g.succ = newAdjacency(n, g.edges, func(e dEdge) int32 { return e.from })

	// Heights: the longest dist-0 path from a node to a sink, over a
	// topological order; a node the order never reaches is on a cycle or
	// behind one.
	indeg := make([]int32, n)
	for _, e := range g.edges {
		if e.dist == 0 {
			indeg[e.to]++
		}
	}
	topo := make([]int32, 0, n)
	for m, d := range indeg {
		if d == 0 {
			topo = append(topo, int32(m))
		}
	}
	for i := 0; i < len(topo); i++ {
		for _, e := range g.succ.of(topo[i]) {
			if e := &g.edges[e]; e.dist == 0 {
				if indeg[e.to]--; indeg[e.to] == 0 {
					topo = append(topo, e.to)
				}
			}
		}
	}
	if len(topo) < n {
		return nil, fmt.Errorf("cellgen: dependence cycle in block b%d", b.ID)
	}
	height := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		m := topo[i]
		for _, e := range g.succ.of(m) {
			if e := &g.edges[e]; e.dist == 0 {
				height[m] = max(height[m], e.lat+height[e.to])
			}
		}
		g.crit = max(g.crit, height[m])
	}
	g.order = topo // reused: every node is in it
	slices.SortFunc(g.order, func(a, b int32) int {
		if c := cmp.Compare(height[b], height[a]); c != 0 {
			return c
		}
		return cmp.Compare(g.nodes[a].ID, g.nodes[b].ID)
	})
	g.rank = make([]int32, n)
	for r, m := range g.order {
		g.rank[m] = int32(r)
	}
	return g, nil
}

// blockSchedule is the result of list scheduling one block.
type blockSchedule struct {
	block *ir.Block
	nodes []*ir.Node // scheduled nodes in issue order (needsInstr only)
	issue map[*ir.Node]int64
	len   int64 // block length in cycles (max issue + 1)
}

// listSchedule schedules the block cycle by cycle over the dist-0 edges.
// The candidates for cycle t are the nodes whose predecessors all issued
// before t, each at least its edge's latency earlier; they are fixed
// before anything issues at t, taken in priority order, and each issues
// at t if its reservation row has room.
func (g *blockGraph) listSchedule() *blockSchedule {
	n := len(g.nodes)
	s := &blockSchedule{block: g.block, nodes: make([]*ir.Node, 0, n), issue: make(map[*ir.Node]int64, n)}
	ready := make([]int64, n)   // earliest issue the issued predecessors allow
	waiting := make([]int32, n) // predecessors not issued yet
	for _, e := range g.edges {
		if e.dist == 0 {
			waiting[e.to]++
		}
	}
	var cands, freed []int32 // cands in priority order
	for _, m := range g.order {
		if waiting[m] == 0 {
			cands = append(cands, m)
		}
	}
	used := make([]uint8, len(g.rowCap))
	for t := int64(0); len(cands) > 0; t++ {
		clear(used)
		first := len(s.nodes)
		kept := cands[:0]
		for _, m := range cands {
			row := g.row[m]
			if ready[m] > t || used[row] == g.rowCap[row] {
				kept = append(kept, m)
				continue
			}
			used[row]++
			node := g.nodes[m]
			s.nodes = append(s.nodes, node)
			s.issue[node] = t
			// The block must extend past every in-flight result: a
			// pipelined write landing after the last issue would
			// otherwise cross into the next block (or the next loop
			// iteration) and clobber a reused register there.
			s.len = max(s.len, t+max(1, resultLatency(node)))
			for _, e := range g.succ.of(m) {
				if e := &g.edges[e]; e.dist == 0 {
					ready[e.to] = max(ready[e.to], t+e.lat)
					if waiting[e.to]--; waiting[e.to] == 0 {
						freed = append(freed, e.to)
					}
				}
			}
		}
		slices.SortFunc(s.nodes[first:], func(a, b *ir.Node) int { return cmp.Compare(a.ID, b.ID) })
		// A node freed at t is a candidate from t+1 on.
		cands = append(kept, freed...)
		if len(freed) > 0 {
			slices.SortFunc(cands, func(a, b int32) int { return cmp.Compare(g.rank[a], g.rank[b]) })
			freed = freed[:0]
		}
	}
	return s
}
