package opt

import (
	"warp/internal/ir"
	"warp/internal/w2"
)

// This file keeps the dependence graph as it was before it moved onto
// dense ids and alias-class hubs: one arc per dependent pair, held in a
// map keyed by node, and a map-labelled reachability.  It is the
// reference TestReachabilityMatchesReference holds the hub graph to.

// refDepArc is one dependence arc between dag nodes, possibly in different
// basic blocks.
type refDepArc struct {
	From, To *ir.Node
	Kind     DepKind
}

// refDepGraph is the global data-dependence information for one function:
// operand edges, explicit ordering edges, and the cross-block arcs
// computed by refGlobalDeps.
type refDepGraph struct {
	Fn   *ir.Func
	Arcs []refDepArc
	// Succ maps each node to its dependence successors over all edge
	// classes (operands, ordering edges, and global arcs).
	Succ map[*ir.Node][]*ir.Node
}

// refGlobalDeps computes cross-block dependence arcs for a function:
//
//   - scalar flow: an OpWrite of a scalar reaches every later OpRead of
//     the same scalar (strict when it is the unique reaching write,
//     which holds per program point in our structured flowgraphs;
//     conservatively including loop back edges);
//   - memory flow: a store to an array reaches later loads of the same
//     array unless their affine addresses can never be equal, in which
//     case no arc is inserted (the paper's analysis "is powerful enough
//     to distinguish between individual array elements"); stores to
//     possibly-equal addresses get sequencing arcs.
//
// Blocks execute in program order, and loop bodies additionally feed
// back into themselves, so "later" includes same-block-next-iteration
// when the nodes share a loop.
func refGlobalDeps(fn *ir.Func) *refDepGraph {
	g := &refDepGraph{Fn: fn, Succ: make(map[*ir.Node][]*ir.Node)}

	// Operand and intra-block ordering edges.
	ir.Walk(fn.Regions, func(b *ir.Block) {
		for _, n := range b.Nodes {
			for _, a := range n.Args {
				g.Succ[a] = append(g.Succ[a], n)
			}
			for _, d := range n.Deps {
				g.Succ[d] = append(g.Succ[d], n)
			}
		}
	})

	// Collect scalar writes/reads and memory ops per block order.
	type memo struct {
		writes map[*w2.Symbol][]*ir.Node
		reads  map[*w2.Symbol][]*ir.Node
		loads  map[*w2.Symbol][]*ir.Node
		stores map[*w2.Symbol][]*ir.Node
	}
	all := memo{
		writes: map[*w2.Symbol][]*ir.Node{},
		reads:  map[*w2.Symbol][]*ir.Node{},
		loads:  map[*w2.Symbol][]*ir.Node{},
		stores: map[*w2.Symbol][]*ir.Node{},
	}
	ir.Walk(fn.Regions, func(b *ir.Block) {
		for _, n := range b.Nodes {
			switch n.Op {
			case ir.OpWrite:
				all.writes[n.Sym] = append(all.writes[n.Sym], n)
			case ir.OpRead:
				all.reads[n.Sym] = append(all.reads[n.Sym], n)
			case ir.OpLoad:
				all.loads[n.Sym] = append(all.loads[n.Sym], n)
			case ir.OpStore:
				all.stores[n.Sym] = append(all.stores[n.Sym], n)
			}
		}
	})

	add := func(from, to *ir.Node, k DepKind) {
		g.Arcs = append(g.Arcs, refDepArc{From: from, To: to, Kind: k})
		g.Succ[from] = append(g.Succ[from], to)
	}

	// Scalar arcs: flow-insensitive over the function (conservative but
	// exact enough for reachability; the blocks execute in order and
	// loops iterate, so any write may reach any read).
	for sym, ws := range all.writes {
		for _, w := range ws {
			for _, r := range all.reads[sym] {
				add(w, r, Strict)
			}
		}
	}
	// Memory arcs with affine disambiguation.
	for sym, sts := range all.stores {
		for _, st := range sts {
			for _, ld := range all.loads[sym] {
				if mayAlias(st.Addr, ld.Addr) {
					add(st, ld, Strict)
				}
			}
			for _, st2 := range sts {
				if st2 != st && mayAlias(st.Addr, st2.Addr) {
					add(st, st2, Sequencing)
				}
			}
		}
	}
	return g
}

// mayAlias reports whether two affine addresses could refer to the same
// element for some (possibly different) iteration vectors.  Unlike the
// same-iteration test used inside a block, a nonzero constant
// difference rules out aliasing only for loop-invariant addresses:
// a[i] and a[i+1] touch the same element one iteration apart.
func mayAlias(a, b w2.Affine) bool {
	// A loop-variant address reaches other elements as its loops iterate:
	// whatever a−b is — variant, zero, or a nonzero constant — some pair
	// of iterations may meet.  Two loop-invariant addresses are disjoint
	// exactly when their constants differ.  (This is a.Sub(b) examined
	// case by case, without building the difference: refGlobalDeps asks once
	// per store × load.)
	return len(a.Terms) != 0 || len(b.Terms) != 0 || a.Const == b.Const
}

// Reachable labels the nodes that depend on the given source sets: bit i
// of a node's label is set when the node is reachable over the dependence
// graph from some node of sources[i] (a source itself only if it lies on
// a cycle), and unreached nodes are absent.  One traversal answers every
// such question at once: a node is revisited only when its label grows.
func (g *refDepGraph) Reachable(sources ...[]*ir.Node) map[*ir.Node]uint {
	type visit struct {
		n    *ir.Node
		from uint
	}
	var stack []visit
	for i, set := range sources {
		for _, s := range set {
			for _, n := range g.Succ[s] {
				stack = append(stack, visit{n, 1 << i})
			}
		}
	}
	label := make(map[*ir.Node]uint, len(g.Succ))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		have := label[v.n]
		if have&v.from == v.from {
			continue
		}
		have |= v.from
		label[v.n] = have
		for _, n := range g.Succ[v.n] {
			stack = append(stack, visit{n, have})
		}
	}
	return label
}
