package ir

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"warp/internal/w2"
)

// Build lowers an analyzed W2 module into the flowgraph IR.
//
// The lowering performs:
//   - basic-block formation (loops delimit blocks; everything else is
//     straight line),
//   - if-conversion: conditionals become select operations so the cell
//     schedule is data independent,
//   - scalar value numbering within blocks, with OpRead/OpWrite at block
//     boundaries,
//   - intra-block ordering edges for queue operations and for possibly
//     aliasing memory operations.
//
// Nodes, their argument and ordering-edge lists and host bindings come
// from slabs of one build, and the per-block state is slices indexed by
// w2.Symbol.ID, so lowering a statement allocates nothing of its own.
// The program outlives the compile, so nothing here is pooled.
func Build(info *w2.Info) (*Program, error) {
	p := &Program{Module: info.Module, Info: info}
	// Size the node and pointer slabs from the variable references: the
	// benchmark programs lower to about one node per two references,
	// with two to three operand and ordering edges per node.
	refs := len(info.Uses)
	b := &builder{
		info:    info,
		nodes:   slab[Node]{buf: make([]Node, 0, refs+16)},
		ptrs:    slab[*Node]{buf: make([]*Node, 0, 2*refs+16)},
		scalars: make([]*Node, info.NumSyms),
		dirty:   make([]bool, info.NumSyms),
		reads:   make([]*Node, info.NumSyms),
		memOps:  make([][]*Node, info.NumSyms),
		inBlock: make([]int, info.NumSyms),
		consts:  make(map[float64]*Node),
	}
	for _, s := range info.Module.Cells.Body {
		call := s.(*w2.CallStmt)
		decl := info.Funcs[call.Name]
		fn, err := b.buildFunc(decl)
		if err != nil {
			return nil, err
		}
		p.Funcs = append(p.Funcs, fn)
	}
	return p, nil
}

// slab hands out values of one type from one backing array; one that
// runs out starts another array, so a value never moves.
type slab[T any] struct{ buf []T }

func (s *slab[T]) new() *T { return &s.take(1)[0] }

// take returns n consecutive values as a window its holder cannot
// append past (never nil).
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return []T{}
	}
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, max(2*cap(s.buf), n, 16))
	}
	i := len(s.buf)
	s.buf = s.buf[:i+n]
	return s.buf[i : i+n : i+n]
}

type builder struct {
	info    *w2.Info
	fn      *Func
	nodeID  int
	blockID int

	cur        *Block
	blockNodes []*Node  // the current block's nodes
	regions    []Region // the open region lists, innermost last
	regionMark int      // where the innermost open list starts in regions

	nodes     slab[Node]
	ptrs      slab[*Node] // Args, Deps and Block.Nodes windows
	exts      slab[ExtRef]
	blocks    slab[Block]
	blockRegs slab[BlockRegion]
	loopRegs  slab[LoopRegion]
	lists     slab[Region]

	// Per-block state, indexed by w2.Symbol.ID.  touched lists the
	// symbols it holds for the current block, which inBlock marks with
	// the block's generation; startBlock resets only those.
	scalars []*Node   // current value of each scalar in the block
	dirty   []bool    // scalar was assigned in this block
	reads   []*Node   // OpRead created in this block
	memOps  [][]*Node // memory operations on each array in the block
	inBlock []int
	touched []*w2.Symbol
	gen     int
	consts  map[float64]*Node // the block's constants by value
	lastIO  [2][2][2]*Node    // last queue operation per stream()
	pending []writeBack       // endBlock's scratch
	deps    []*Node           // orderMem's scratch

	ioCounts [2][2][2]int   // static statement ordinals per stream()
	ioDyn    [2][2][2]int64 // dynamic operation counts per stream()

	preds []*Node // active predicate stack (if-conversion)
	loops []*w2.ForStmt
	trips int64 // product of enclosing loop trip counts
}

// writeBack is a scalar whose block-exit value must be written home.
type writeBack struct {
	sym *w2.Symbol
	val *Node
}

// stream indexes the per-stream state of a queue operation by
// [send][direction][channel].
func stream(n *Node) (int, w2.Direction, w2.Channel) {
	if n.Op == OpSend {
		return 1, n.Dir, n.Chan
	}
	return 0, n.Dir, n.Chan
}

func (b *builder) buildFunc(decl *w2.FuncDecl) (*Func, error) {
	b.fn = &Func{Decl: decl}
	b.nodeID, b.blockID = 0, 0
	b.ioCounts, b.ioDyn = [2][2][2]int{}, [2][2][2]int64{}
	b.trips = 1
	b.regions, b.regionMark = b.regions[:0], 0
	b.startBlock()
	if err := b.stmts(decl.Body); err != nil {
		return nil, err
	}
	b.endBlock()
	b.fn.Regions = b.closeRegions(0)
	for _, d := range []w2.Direction{w2.DirL, w2.DirR} {
		for _, c := range []w2.Channel{w2.ChanX, w2.ChanY} {
			b.fn.NumRecv[d][c] = b.ioDyn[0][d][c]
			b.fn.NumSend[d][c] = b.ioDyn[1][d][c]
		}
	}
	return b.fn, nil
}

func (b *builder) startBlock() {
	b.cur = b.blocks.new()
	b.cur.ID = b.blockID
	b.blockID++
	b.blockNodes = b.blockNodes[:0]
	b.gen++
	for _, sym := range b.touched {
		b.scalars[sym.ID], b.dirty[sym.ID], b.reads[sym.ID] = nil, false, nil
		b.memOps[sym.ID] = b.memOps[sym.ID][:0]
	}
	b.touched = b.touched[:0]
	clear(b.consts)
	b.lastIO = [2][2][2]*Node{}
}

// touch records that sym has state in the current block.
func (b *builder) touch(sym *w2.Symbol) {
	if b.inBlock[sym.ID] != b.gen {
		b.inBlock[sym.ID] = b.gen
		b.touched = append(b.touched, sym)
	}
}

// endBlock finalizes the current block: write back dirty scalars and
// append the block to the enclosing region list (empty blocks are
// dropped).
func (b *builder) endBlock() {
	// Deterministic write-back order: by node ID of the final value,
	// then by symbol name — two scalars can share one value node (a :=
	// x; b := x), and the tie must not fall back to the order the
	// scalars were first touched in, or the writes' node IDs vary with
	// it.
	pending := b.pending[:0]
	for _, sym := range b.touched {
		if b.dirty[sym.ID] {
			pending = append(pending, writeBack{sym, b.scalars[sym.ID]})
		}
	}
	slices.SortFunc(pending, func(x, y writeBack) int {
		if x.val.ID != y.val.ID {
			return cmp.Compare(x.val.ID, y.val.ID)
		}
		return strings.Compare(x.sym.Name, y.sym.Name)
	})
	for _, p := range pending {
		w := b.newNode(OpWrite, p.val)
		w.Sym = p.sym
		// The write must follow any read of the previous value.
		if r := b.reads[p.sym.ID]; r != nil && r != p.val {
			w.Deps = b.edges(r)
		}
	}
	b.pending = pending
	if len(b.blockNodes) > 0 {
		b.cur.Nodes = b.ptrs.take(len(b.blockNodes))
		copy(b.cur.Nodes, b.blockNodes)
		b.fn.Blocks = append(b.fn.Blocks, b.cur)
		r := b.blockRegs.new()
		r.Block = b.cur
		b.regions = append(b.regions, r)
	}
	b.cur = nil
}

// closeRegions moves the innermost open region list into a window of
// the list slab and reopens the enclosing one, which starts at outer.
func (b *builder) closeRegions(outer int) []Region {
	list := b.lists.take(len(b.regions) - b.regionMark)
	copy(list, b.regions[b.regionMark:])
	b.regions = b.regions[:b.regionMark]
	b.regionMark = outer
	return list
}

func (b *builder) newNode(op Op, args ...*Node) *Node {
	n := b.nodes.new()
	n.ID, n.Op = b.nodeID, op
	if len(args) > 0 {
		n.Args = b.ptrs.take(len(args))
		copy(n.Args, args)
	}
	b.nodeID++
	b.blockNodes = append(b.blockNodes, n)
	return n
}

// edges copies a node's ordering edges into the slab.
func (b *builder) edges(deps ...*Node) []*Node {
	w := b.ptrs.take(len(deps))
	copy(w, deps)
	return w
}

// constF returns the block's constant of value v, the first one made
// when there are several.  Lookup is by ==, as a Go map key compares:
// +0 and −0 are one constant, and a NaN never matches one.
func (b *builder) constF(v float64) *Node {
	if n, ok := b.consts[v]; ok {
		return n
	}
	n := b.newNode(OpConst)
	n.FVal = v
	b.consts[v] = n
	return n
}

func (b *builder) stmts(list []w2.Stmt) error {
	for _, s := range list {
		if err := b.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) stmt(s w2.Stmt) error {
	switch s := s.(type) {
	case *w2.AssignStmt:
		val, err := b.expr(s.RHS)
		if err != nil {
			return err
		}
		return b.assign(s.LHS, val, s.Pos)

	case *w2.IfStmt:
		cond, err := b.expr(s.Cond)
		if err != nil {
			return err
		}
		b.preds = append(b.preds, cond)
		if err := b.stmts(s.Then); err != nil {
			return err
		}
		b.preds = b.preds[:len(b.preds)-1]
		if len(s.Else) > 0 {
			neg := b.newNode(OpNot, cond)
			neg.Pos = s.Pos
			b.preds = append(b.preds, neg)
			if err := b.stmts(s.Else); err != nil {
				return err
			}
			b.preds = b.preds[:len(b.preds)-1]
		}
		return nil

	case *w2.ForStmt:
		if len(b.preds) > 0 {
			return fmt.Errorf("%s: loops under a conditional are not supported", s.Pos)
		}
		bounds := b.info.Bounds[s.ID]
		b.endBlock()
		outer := b.regionMark
		b.regionMark = len(b.regions)
		b.loops = append(b.loops, s)
		b.trips *= bounds[1] - bounds[0] + 1
		b.startBlock()
		if err := b.stmts(s.Body); err != nil {
			return err
		}
		b.endBlock()
		b.trips /= bounds[1] - bounds[0] + 1
		b.loops = b.loops[:len(b.loops)-1]
		lr := b.loopRegs.new()
		lr.Loop, lr.Lo, lr.Hi, lr.Body = s, bounds[0], bounds[1], b.closeRegions(outer)
		b.regions = append(b.regions, lr)
		b.startBlock()
		return nil

	case *w2.ReceiveStmt:
		if len(b.preds) > 0 {
			return fmt.Errorf("%s: receive under a conditional", s.Pos)
		}
		n := b.newNode(OpRecv)
		n.Dir, n.Chan, n.Pos = s.Dir, s.Chan, s.Pos
		n.Ext = b.extRef(s.External)
		b.orderIO(n)
		return b.assign(s.LHS, n, s.Pos)

	case *w2.SendStmt:
		if len(b.preds) > 0 {
			return fmt.Errorf("%s: send under a conditional", s.Pos)
		}
		val, err := b.expr(s.Value)
		if err != nil {
			return err
		}
		n := b.newNode(OpSend, val)
		n.Dir, n.Chan, n.Pos = s.Dir, s.Chan, s.Pos
		if s.External != nil {
			n.Ext = b.extRef(s.External)
		}
		b.orderIO(n)
		return nil

	case *w2.BlockStmt:
		return b.stmts(s.Body)
	}
	return fmt.Errorf("%s: unhandled statement in IR lowering", s.StmtPos())
}

// orderIO assigns the static per-stream ordinal and chains the node
// after the previous operation on the same queue.
func (b *builder) orderIO(n *Node) {
	s, d, c := stream(n)
	n.IOSeq = b.ioCounts[s][d][c]
	b.ioCounts[s][d][c]++
	b.ioDyn[s][d][c] += b.trips
	if prev := b.lastIO[s][d][c]; prev != nil {
		n.Deps = b.edges(prev)
	}
	b.lastIO[s][d][c] = n
}

func (b *builder) extRef(e w2.Expr) *ExtRef {
	switch e := e.(type) {
	case nil:
		return nil
	case *w2.FloatLit:
		x := b.exts.new()
		x.Literal = e.Value
		return x
	case *w2.IntLit:
		x := b.exts.new()
		x.Literal = float64(e.Value)
		return x
	case *w2.VarRef:
		x := b.exts.new()
		x.Sym, x.Addr = b.info.Uses[e.ID], b.info.Address[e.ID]
		return x
	}
	return nil
}

// predicate returns the conjunction of the active predicate stack, or
// nil when unpredicated.
func (b *builder) predicate() *Node {
	if len(b.preds) == 0 {
		return nil
	}
	p := b.preds[0]
	for _, q := range b.preds[1:] {
		p = b.andNode(p, q)
	}
	return p
}

func (b *builder) andNode(p, q *Node) *Node {
	for _, n := range b.blockNodes {
		if n.Op == OpAnd && len(n.Args) == 2 &&
			((n.Args[0] == p && n.Args[1] == q) || (n.Args[0] == q && n.Args[1] == p)) {
			return n
		}
	}
	return b.newNode(OpAnd, p, q)
}

// assign stores val into a scalar or array element, applying the active
// predicate with a select.
func (b *builder) assign(lhs *w2.VarRef, val *Node, pos w2.Pos) error {
	sym := b.info.Uses[lhs.ID]
	pred := b.predicate()
	if sym.Kind == w2.SymCellScalar {
		if pred != nil {
			old := b.scalarValue(sym)
			sel := b.newNode(OpSelect, pred, val, old)
			sel.Pos = pos
			val = sel
		}
		b.touch(sym)
		b.scalars[sym.ID] = val
		b.dirty[sym.ID] = true
		return nil
	}
	// Array element store.
	addr := b.info.Address[lhs.ID]
	if pred != nil {
		old := b.load(sym, addr, pos)
		sel := b.newNode(OpSelect, pred, val, old)
		sel.Pos = pos
		val = sel
	}
	st := b.newNode(OpStore, val)
	st.Sym, st.Addr, st.Pos = sym, addr, pos
	b.orderMem(st)
	return nil
}

// scalarValue returns the current value of a scalar, creating an OpRead
// on first use in the block.
func (b *builder) scalarValue(sym *w2.Symbol) *Node {
	if v := b.scalars[sym.ID]; v != nil {
		return v
	}
	r := b.newNode(OpRead)
	r.Sym = sym
	b.touch(sym)
	b.scalars[sym.ID] = r
	b.reads[sym.ID] = r
	return r
}

func (b *builder) load(sym *w2.Symbol, addr w2.Affine, pos w2.Pos) *Node {
	ld := b.newNode(OpLoad)
	ld.Sym, ld.Addr, ld.Pos = sym, addr, pos
	b.orderMem(ld)
	return ld
}

// orderMem adds conservative ordering edges between memory operations on
// the same array that may alias within one iteration.  Two affine
// addresses cannot alias when their difference is a nonzero constant
// (the paper's global flow analysis "is powerful enough to distinguish
// between individual array elements", §6.1).
func (b *builder) orderMem(n *Node) {
	prev := b.memOps[n.Sym.ID]
	deps := b.deps[:0]
	for _, m := range prev {
		if n.Op == OpLoad && m.Op == OpLoad {
			continue
		}
		if diff, ok := n.Addr.ConstDiff(m.Addr); ok && diff != 0 {
			continue // provably disjoint
		}
		deps = append(deps, m)
	}
	if len(deps) > 0 {
		n.Deps = b.edges(deps...)
	}
	b.deps = deps
	b.touch(n.Sym)
	b.memOps[n.Sym.ID] = append(prev, n)
}

func (b *builder) expr(e w2.Expr) (*Node, error) {
	switch e := e.(type) {
	case *w2.IntLit:
		return b.constF(float64(e.Value)), nil
	case *w2.FloatLit:
		return b.constF(e.Value), nil
	case *w2.VarRef:
		sym := b.info.Uses[e.ID]
		switch sym.Kind {
		case w2.SymCellScalar:
			return b.scalarValue(sym), nil
		case w2.SymCellArray:
			return b.load(sym, b.info.Address[e.ID], e.Pos), nil
		}
		return nil, fmt.Errorf("%s: %s cannot be used as a value", e.Pos, e.Name)
	case *w2.UnExpr:
		x, err := b.expr(e.X)
		if err != nil {
			return nil, err
		}
		op := OpFneg
		if !e.Neg {
			op = OpNot
		}
		n := b.newNode(op, x)
		n.Pos = e.Pos
		return n, nil
	case *w2.BinExpr:
		l, err := b.expr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := b.expr(e.R)
		if err != nil {
			return nil, err
		}
		var op Op
		switch e.Op {
		case w2.OpAdd:
			op = OpFadd
		case w2.OpSub:
			op = OpFsub
		case w2.OpMul:
			op = OpFmul
		case w2.OpDivide:
			op = OpFdiv
		case w2.OpEq:
			op = OpEq
		case w2.OpNe:
			op = OpNe
		case w2.OpLt:
			op = OpLt
		case w2.OpLe:
			op = OpLe
		case w2.OpGt:
			op = OpGt
		case w2.OpGe:
			op = OpGe
		case w2.OpAnd:
			op = OpAnd
		case w2.OpOr:
			op = OpOr
		default:
			return nil, fmt.Errorf("%s: operator %s not supported on cells", e.Pos, e.Op)
		}
		n := b.newNode(op, l, r)
		n.Pos = e.Pos
		return n, nil
	}
	return nil, fmt.Errorf("%s: unhandled expression in IR lowering", e.ExprPos())
}
