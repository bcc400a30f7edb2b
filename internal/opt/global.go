package opt

import (
	"cmp"
	"slices"

	"warp/internal/ir"
	"warp/internal/w2"
)

// DepKind classifies a global dependence (§6.1): the global flow
// analyzer inserts "uses" arcs when a strict dependence can be deduced
// (this read always sees that write) and conservative sequencing arcs
// otherwise.
type DepKind int

// Dependence kinds.
const (
	// Strict: the target always uses the value of the source.
	Strict DepKind = iota
	// Sequencing: a conservative order-of-evaluation constraint.
	Sequencing
)

// Hub is one alias class's junction in the dependence graph: every
// source of the class has an arc into the hub and the hub one to every
// target, standing for the complete set of arcs from those sources to
// those targets.
type Hub struct {
	Sym  *w2.Symbol
	Kind DepKind
}

// DepGraph is the global data-dependence graph of one function over
// dense ids: a dag node's id is its ir.Node.ID, and id Nodes+i is
// Hubs[i].  The successors of id v over all edge classes (operands,
// ordering edges and global dependences) are succ[start[v]:start[v+1]].
type DepGraph struct {
	Fn    *ir.Func
	Nodes int
	Hubs  []Hub
	start []int32
	succ  []int32
}

// GlobalDeps computes the cross-block dependences of a function:
//
//   - scalar flow: an OpWrite of a scalar reaches every later OpRead of
//     the same scalar (strict when it is the unique reaching write,
//     which holds per program point in our structured flowgraphs;
//     conservatively including loop back edges);
//   - memory flow: a store to an array reaches later loads of the same
//     array unless their affine addresses can never be equal, in which
//     case there is no dependence (the paper's analysis "is powerful
//     enough to distinguish between individual array elements"); stores
//     to possibly-equal addresses are sequenced.
//
// Blocks execute in program order, and loop bodies additionally feed
// back into themselves, so "later" includes same-block-next-iteration
// when the nodes share a loop.
//
// Two addresses may alias unless both are loop invariant with different
// constants: a loop-variant address reaches other elements as its loops
// iterate.  So a symbol's dependences are complete bipartite between
// classes, and each class pair is one hub rather than an arc per pair:
// scalar writes → reads; variant stores → every load and every store;
// invariant stores → variant loads and variant stores; invariant stores
// with constant c → invariant loads with constant c and the other
// invariant stores with constant c.  The store→store hubs are built only
// where two stores can meet, so a store's path back to itself through a
// hub stands for a cycle the arcs have too.  Reachability between dag
// nodes is exactly the arcs'.
//
// Node ids must be distinct within the function, as ir.Build numbers
// them.
func GlobalDeps(fn *ir.Func) *DepGraph {
	g := &DepGraph{Fn: fn}

	// The blocks, and every node that takes part in an alias class: a
	// scalar's writes and reads, an array's loads and stores, each at a
	// variant or an invariant address.
	const (
		write = iota
		read
		load
		store
		kinds // class of a member: (symbol·kinds + kind)·2 + variant
	)
	var blocks []*ir.Block
	var members []member
	symIdx := map[*w2.Symbol]int{}
	var syms []*w2.Symbol
	ir.Walk(fn.Regions, func(b *ir.Block) {
		blocks = append(blocks, b)
		for _, n := range b.Nodes {
			g.Nodes = max(g.Nodes, n.ID+1)
			for _, a := range n.Args {
				g.Nodes = max(g.Nodes, a.ID+1)
			}
			for _, d := range n.Deps {
				g.Nodes = max(g.Nodes, d.ID+1)
			}
			kind := write
			switch n.Op {
			case ir.OpWrite:
			case ir.OpRead:
				kind = read
			case ir.OpLoad:
				kind = load
			case ir.OpStore:
				kind = store
			default:
				continue
			}
			s, ok := symIdx[n.Sym]
			if !ok {
				s = len(syms)
				symIdx[n.Sym] = s
				syms = append(syms, n.Sym)
			}
			k := (s*kinds + kind) * 2
			if len(n.Addr.Terms) != 0 {
				k++
			}
			members = append(members, member{k, n.Addr.Const, int32(n.ID)})
		}
	})

	// The members by class, in walk order: class k is
	// sorted[at[k]:at[k+1]], an invariant class sorted by constant.
	at := make([]int, len(syms)*kinds*2+1)
	for _, m := range members {
		at[m.class+1]++
	}
	for k := range len(at) - 1 {
		at[k+1] += at[k]
	}
	sorted := make([]member, len(members))
	next := slices.Clone(at)
	for _, m := range members {
		sorted[next[m.class]] = m
		next[m.class]++
	}
	for k := 0; k+1 < len(at); k += 2 {
		slices.SortFunc(sorted[at[k]:at[k+1]], byConst)
	}
	// class returns a symbol's members of one kind: invariant, variant
	// and both.
	class := func(s, kind int) (inv, vary, all []member) {
		k := (s*kinds + kind) * 2
		return sorted[at[k]:at[k+1]], sorted[at[k+1]:at[k+2]], sorted[at[k]:at[k+2]]
	}

	// The hubs, each with its sources and targets.
	type hubEnds struct{ from, to []member }
	var ends []hubEnds
	hub := func(s int, k DepKind, from, to []member) {
		if len(from) > 0 && len(to) > 0 {
			g.Hubs = append(g.Hubs, Hub{Sym: syms[s], Kind: k})
			ends = append(ends, hubEnds{from, to})
		}
	}
	for s := range syms {
		_, _, writes := class(s, write)
		_, _, reads := class(s, read)
		_, varLoads, loads := class(s, load)
		invStores, varStores, stores := class(s, store)
		hub(s, Strict, writes, reads)
		hub(s, Strict, varStores, loads)
		hub(s, Strict, invStores, varLoads)
		if len(stores) >= 2 {
			hub(s, Sequencing, varStores, stores)
			hub(s, Sequencing, invStores, varStores)
		}
		// Invariant stores and loads, merged by constant.
		k := (s*kinds + store) * 2
		l := (s*kinds + load) * 2
		for st, ld := at[k], at[l]; st < at[k+1]; {
			c := sorted[st].c
			stEnd := st
			for stEnd < at[k+1] && sorted[stEnd].c == c {
				stEnd++
			}
			for ld < at[l+1] && sorted[ld].c < c {
				ld++
			}
			ldEnd := ld
			for ldEnd < at[l+1] && sorted[ldEnd].c == c {
				ldEnd++
			}
			hub(s, Strict, sorted[st:stEnd], sorted[ld:ldEnd])
			if stEnd-st >= 2 {
				hub(s, Sequencing, sorted[st:stEnd], sorted[st:stEnd])
			}
			st, ld = stEnd, ldEnd
		}
	}

	// The graph in CSR form: count every edge, then place it.
	g.start = make([]int32, g.Nodes+len(g.Hubs)+1)
	for _, b := range blocks {
		for _, n := range b.Nodes {
			for _, a := range n.Args {
				g.start[a.ID+1]++
			}
			for _, d := range n.Deps {
				g.start[d.ID+1]++
			}
		}
	}
	for i, e := range ends {
		h := g.Nodes + i
		for _, f := range e.from {
			g.start[f.id+1]++
		}
		g.start[h+1] += int32(len(e.to))
	}
	for v := range len(g.start) - 1 {
		g.start[v+1] += g.start[v]
	}
	g.succ = make([]int32, g.start[len(g.start)-1])
	fill := slices.Clone(g.start[:len(g.start)-1])
	add := func(from, to int32) {
		g.succ[fill[from]] = to
		fill[from]++
	}
	for _, b := range blocks {
		for _, n := range b.Nodes {
			for _, a := range n.Args {
				add(int32(a.ID), int32(n.ID))
			}
			for _, d := range n.Deps {
				add(int32(d.ID), int32(n.ID))
			}
		}
	}
	for i, e := range ends {
		h := int32(g.Nodes + i)
		for _, f := range e.from {
			add(f.id, h)
		}
		for j, t := range e.to {
			g.succ[g.start[h]+int32(j)] = t.id
		}
	}
	return g
}

// member is a node of an alias class (GlobalDeps).
type member struct {
	class int
	c     int64
	id    int32
}

// byConst orders members by their address constant.
func byConst(a, b member) int { return cmp.Compare(a.c, b.c) }

// Reachable labels the dag nodes that depend on the given source sets,
// indexed by ir.Node.ID: bit i of a node's label is set when the node is
// reachable over the dependence graph from some node of sources[i] (a
// source itself only if it lies on a cycle); an unreached node's label
// is 0.  One traversal answers every such question at once: a node is
// revisited only when its label grows.
func (g *DepGraph) Reachable(sources ...[]*ir.Node) []uint {
	label := make([]uint, len(g.start)-1)
	var stack []int32
	reach := func(v int32, bits uint) {
		if label[v]|bits != label[v] {
			label[v] |= bits
			stack = append(stack, v)
		}
	}
	for i, set := range sources {
		for _, s := range set {
			if s.ID < g.Nodes {
				for _, v := range g.succ[g.start[s.ID]:g.start[s.ID+1]] {
					reach(v, 1<<i)
				}
			}
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.succ[g.start[v]:g.start[v+1]] {
			reach(w, label[v])
		}
	}
	return label[:g.Nodes]
}
