// Package opt implements the flow analyzer's optimization passes
// (§6.1): local common-subexpression elimination, constant folding,
// idempotent-operation removal and height reduction on each basic
// block's dag, plus the global dependence analysis that connects dag
// nodes across basic blocks.
package opt

import (
	"math"
	"sort"

	"warp/internal/ir"
	"warp/internal/w2"
)

// Stats counts the transformations applied, for compiler reports.
type Stats struct {
	CSE        int // nodes merged by common-subexpression elimination
	Folded     int // nodes replaced by constants
	Idempotent int // identity operations removed
	Rebalanced int // associative chains rebalanced (height reduction)
	Dead       int // unused pure nodes deleted
}

// Total returns the total number of transformations.
func (s Stats) Total() int { return s.CSE + s.Folded + s.Idempotent + s.Rebalanced + s.Dead }

// Optimize runs the local optimization pipeline on every block of the
// program, to a fixed point (each round may expose new opportunities).
func Optimize(p *ir.Program) Stats {
	var total Stats
	var t tables
	for _, fn := range p.Funcs {
		total.Dead += removeDeadWrites(fn)
		for _, b := range fn.Blocks {
			for {
				var s Stats
				s.Folded += foldConstants(b)
				s.Idempotent += removeIdentities(b)
				s.CSE += t.cse(b)
				s.Rebalanced += t.reduceHeight(b)
				s.Dead += t.removeDead(b)
				total.CSE += s.CSE
				total.Folded += s.Folded
				total.Idempotent += s.Idempotent
				total.Rebalanced += s.Rebalanced
				total.Dead += s.Dead
				if s.Total() == 0 {
					break
				}
			}
		}
	}
	return total
}

// replace rewrites every use of old to new within the block, including
// ordering edges.
func replace(b *ir.Block, old, new *ir.Node) {
	for _, n := range b.Nodes {
		for i, a := range n.Args {
			if a == old {
				n.Args[i] = new
			}
		}
		for i, d := range n.Deps {
			if d == old {
				n.Deps[i] = new
			}
		}
	}
}

// isPure reports whether a node has no side effects and depends only on
// its arguments.
func isPure(n *ir.Node) bool {
	switch n.Op {
	case ir.OpConst, ir.OpFadd, ir.OpFsub, ir.OpFmul, ir.OpFdiv, ir.OpFneg,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpAnd, ir.OpOr, ir.OpNot, ir.OpSelect:
		return true
	}
	return false
}

// foldConstants evaluates pure operations whose operands are constants.
// Booleans are represented as 1.0/0.0 during folding.
func foldConstants(b *ir.Block) int {
	count := 0
	for _, n := range b.Nodes {
		if !isPure(n) || n.Op == ir.OpConst {
			continue
		}
		allConst := true
		for _, a := range n.Args {
			if a.Op != ir.OpConst {
				allConst = false
				break
			}
		}
		if !allConst {
			continue
		}
		v, ok := evalConst(n)
		if !ok {
			continue
		}
		n.Op = ir.OpConst
		n.FVal = v
		n.Args = nil
		count++
	}
	return count
}

func evalConst(n *ir.Node) (float64, bool) {
	arg := func(i int) float64 { return n.Args[i].FVal }
	boolVal := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	switch n.Op {
	case ir.OpFadd:
		return arg(0) + arg(1), true
	case ir.OpFsub:
		return arg(0) - arg(1), true
	case ir.OpFmul:
		return arg(0) * arg(1), true
	case ir.OpFdiv:
		if arg(1) == 0 {
			return 0, false // leave runtime semantics alone
		}
		return arg(0) / arg(1), true
	case ir.OpFneg:
		return -arg(0), true
	case ir.OpEq:
		return boolVal(arg(0) == arg(1)), true
	case ir.OpNe:
		return boolVal(arg(0) != arg(1)), true
	case ir.OpLt:
		return boolVal(arg(0) < arg(1)), true
	case ir.OpLe:
		return boolVal(arg(0) <= arg(1)), true
	case ir.OpGt:
		return boolVal(arg(0) > arg(1)), true
	case ir.OpGe:
		return boolVal(arg(0) >= arg(1)), true
	case ir.OpAnd:
		return boolVal(arg(0) != 0 && arg(1) != 0), true
	case ir.OpOr:
		return boolVal(arg(0) != 0 || arg(1) != 0), true
	case ir.OpNot:
		return boolVal(arg(0) == 0), true
	case ir.OpSelect:
		if arg(0) != 0 {
			return arg(1), true
		}
		return arg(2), true
	}
	return 0, false
}

func isConstVal(n *ir.Node, v float64) bool { return n.Op == ir.OpConst && n.FVal == v }

// removeIdentities applies the "idempotent operation removal" of the
// paper's local optimizer [Allen & Cocke's catalogue]: x+0, x−0, x·1,
// x/1, select with constant or equal operands, double negation.
// (x·0 is not folded to 0: IEEE semantics for NaN and infinities would
// change; the 1986 Warp hardware had no such qualms, but we keep the
// simulator's arithmetic exact.)
func removeIdentities(b *ir.Block) int {
	count := 0
	for _, n := range b.Nodes {
		var repl *ir.Node
		switch n.Op {
		case ir.OpFadd:
			if isConstVal(n.Args[1], 0) {
				repl = n.Args[0]
			} else if isConstVal(n.Args[0], 0) {
				repl = n.Args[1]
			}
		case ir.OpFsub:
			if isConstVal(n.Args[1], 0) {
				repl = n.Args[0]
			}
		case ir.OpFmul:
			if isConstVal(n.Args[1], 1) {
				repl = n.Args[0]
			} else if isConstVal(n.Args[0], 1) {
				repl = n.Args[1]
			}
		case ir.OpFdiv:
			if isConstVal(n.Args[1], 1) {
				repl = n.Args[0]
			}
		case ir.OpFneg:
			if n.Args[0].Op == ir.OpFneg {
				repl = n.Args[0].Args[0]
			}
		case ir.OpNot:
			if n.Args[0].Op == ir.OpNot {
				repl = n.Args[0].Args[0]
			}
		case ir.OpSelect:
			switch {
			case isConstVal(n.Args[0], 1):
				repl = n.Args[1]
			case isConstVal(n.Args[0], 0):
				repl = n.Args[2]
			case n.Args[1] == n.Args[2]:
				repl = n.Args[1]
			}
		}
		if repl != nil && repl != n {
			replace(b, n, repl)
			count++
		}
	}
	return count
}

// tables are the local passes' per-block side tables, indexed by
// ir.Node.ID − lo over the block's ID range [lo, lo+len): one set per
// Optimize call, cleared for each block.
type tables struct {
	lo    int
	count []int32 // uses (removeDead: > 0 is used; reduceHeight: the number)
	head  []int32 // cse: first node keyed by this first operand, as index+1
	next  []int32 // cse: the next node keyed by the same first operand
	key   []cseKey
	nodes []*ir.Node // cse: the nodes by index
	// consts are cse's operandless nodes (constants) by value.
	consts map[float64]*ir.Node
	// leaves and interior are reduceHeight's chain under one root.
	leaves, interior []*ir.Node
}

// reset sizes and clears the tables for b's nodes and their operands.
func (t *tables) reset(b *ir.Block) {
	lo, hi := math.MaxInt, -1
	for _, n := range b.Nodes {
		lo, hi = min(lo, n.ID), max(hi, n.ID)
		for _, a := range n.Args {
			lo, hi = min(lo, a.ID), max(hi, a.ID)
		}
		for _, d := range n.Deps {
			lo, hi = min(lo, d.ID), max(hi, d.ID)
		}
	}
	n := max(hi-lo+1, 0)
	t.lo = lo
	t.count = resize(t.count, n)
	t.head = resize(t.head, n)
	t.next = resize(t.next, n)
	t.key = resize(t.key, n)
	t.nodes = resize(t.nodes, n)
}

// resize returns s with length n, zeroed.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// countUses fills t.count with the number of operand and ordering
// edges into each node of b.
func (t *tables) countUses(b *ir.Block) {
	t.reset(b)
	for _, n := range b.Nodes {
		for _, a := range n.Args {
			t.count[a.ID-t.lo]++
		}
		for _, d := range n.Deps {
			t.count[d.ID-t.lo]++
		}
	}
}

func (t *tables) uses(n *ir.Node) int32 { return t.count[n.ID-t.lo] }

// cseKey identifies structurally equal pure nodes, with the first
// operand's ID, by which the table chains them, left out.
type cseKey struct {
	op   ir.Op
	a1   int
	fval float64
}

// cse merges structurally identical pure nodes (local value numbering).
// Commutative operands are ordered canonically first.  A node's key is
// taken when it is visited, and == compares the values: +0 and −0 are
// one constant, and a NaN never matches.
func (t *tables) cse(b *ir.Block) int {
	t.reset(b)
	if t.consts == nil {
		t.consts = make(map[float64]*ir.Node)
	}
	clear(t.consts)
	count := 0
	for _, n := range b.Nodes {
		if !isPure(n) {
			continue
		}
		if n.Op.IsCommutative() && len(n.Args) == 2 && n.Args[0].ID > n.Args[1].ID {
			n.Args[0], n.Args[1] = n.Args[1], n.Args[0]
		}
		if len(n.Args) == 0 { // a constant
			if prev, ok := t.consts[n.FVal]; ok {
				replace(b, n, prev)
				count++
				continue
			}
			t.consts[n.FVal] = n
			continue
		}
		k := cseKey{op: n.Op, fval: n.FVal, a1: -1}
		if len(n.Args) > 1 {
			k.a1 = n.Args[1].ID
		}
		if n.Op == ir.OpSelect {
			// Three operands: the third takes the value's slot.
			k.fval = float64(n.Args[2].ID)
		}
		a0 := n.Args[0].ID - t.lo
		if prev := t.lookup(a0, k); prev != nil {
			replace(b, n, prev)
			count++
			continue
		}
		i := n.ID - t.lo
		t.key[i], t.nodes[i] = k, n
		t.next[i], t.head[a0] = t.head[a0], int32(i+1)
	}
	return count
}

// lookup returns the node entered under first operand a0 and key k.
func (t *tables) lookup(a0 int, k cseKey) *ir.Node {
	for i := t.head[a0]; i != 0; i = t.next[i-1] {
		if t.key[i-1] == k {
			return t.nodes[i-1]
		}
	}
	return nil
}

// removeDeadWrites deletes block-exit writes of scalars that are never
// read back anywhere in the function: their value lives entirely inside
// the defining block, so the home-register write-back is dead.  (The
// flow-insensitive test keeps any scalar with a read somewhere, which
// conservatively covers loop-carried uses.)
func removeDeadWrites(fn *ir.Func) int {
	var read []bool // by w2.Symbol.ID
	for _, b := range fn.Blocks {
		for _, n := range b.Nodes {
			if n.Op == ir.OpRead {
				if n.Sym.ID >= len(read) {
					read = append(read, make([]bool, n.Sym.ID+1-len(read))...)
				}
				read[n.Sym.ID] = true
			}
		}
	}
	isRead := func(sym *w2.Symbol) bool { return sym.ID < len(read) && read[sym.ID] }
	count := 0
	for _, b := range fn.Blocks {
		kept := b.Nodes[:0]
		for _, n := range b.Nodes {
			if n.Op == ir.OpWrite && !isRead(n.Sym) {
				count++
				continue
			}
			kept = append(kept, n)
		}
		b.Nodes = kept
	}
	return count
}

// removeDead deletes pure nodes with no remaining uses.
func (t *tables) removeDead(b *ir.Block) int {
	t.countUses(b)
	kept := b.Nodes[:0]
	count := 0
	for _, n := range b.Nodes {
		if isPure(n) && t.uses(n) == 0 {
			count++
			continue
		}
		kept = append(kept, n)
	}
	b.Nodes = kept
	return count
}

// reduceHeight rebalances chains of a single associative, commutative
// operation (fadd or fmul) into balanced trees, shortening the critical
// path through deeply pipelined arithmetic units [Patel & Davidson;
// Rau & Glaeser].  Only interior nodes with exactly one use may be
// restructured.
func (t *tables) reduceHeight(b *ir.Block) int {
	t.countUses(b)
	count := 0
	for _, root := range b.Nodes {
		if (root.Op != ir.OpFadd && root.Op != ir.OpFmul) || len(root.Args) != 2 {
			continue
		}
		t.leaves, t.interior = t.leaves[:0], t.interior[:0]
		t.collect(root, root.Op, true)
		leaves, interior := t.leaves, t.interior
		if len(leaves) < 4 {
			continue
		}
		// Height of the existing tree vs. balanced height.
		depth := t.chainDepth(root, root.Op)
		balanced := ceilLog2(len(leaves))
		if depth <= balanced {
			continue
		}
		// Rebuild as a balanced tree, reusing the interior nodes.
		sort.SliceStable(leaves, func(i, j int) bool { return leaves[i].ID < leaves[j].ID })
		nodes := leaves
		avail := interior
		for len(nodes) > 1 {
			var next []*ir.Node
			for i := 0; i+1 < len(nodes); i += 2 {
				var parent *ir.Node
				if len(nodes) == 2 {
					parent = root
				} else {
					parent = avail[0]
					avail = avail[1:]
				}
				parent.Args = []*ir.Node{nodes[i], nodes[i+1]}
				next = append(next, parent)
			}
			if len(nodes)%2 == 1 {
				next = append(next, nodes[len(nodes)-1])
			}
			nodes = next
		}
		count++
	}
	return count
}

// collect gathers the maximal single-use chain of op under n into
// t.interior and t.leaves, left to right.
func (t *tables) collect(n *ir.Node, op ir.Op, isRoot bool) {
	if n.Op == op && (isRoot || t.uses(n) == 1) {
		if !isRoot {
			t.interior = append(t.interior, n)
		}
		t.collect(n.Args[0], op, false)
		t.collect(n.Args[1], op, false)
		return
	}
	t.leaves = append(t.leaves, n)
}

func (t *tables) chainDepth(n *ir.Node, op ir.Op) int {
	if n.Op != op {
		return 0
	}
	d := 0
	for _, a := range n.Args {
		ad := 0
		if a.Op == op && t.uses(a) == 1 {
			ad = t.chainDepth(a, op)
		}
		if ad > d {
			d = ad
		}
	}
	return d + 1
}

func ceilLog2(n int) int {
	return int(math.Ceil(math.Log2(float64(n))))
}
