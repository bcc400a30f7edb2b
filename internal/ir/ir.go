package ir

import (
	"fmt"
	"strings"

	"warp/internal/w2"
)

// ExtRef is the host-side binding of a boundary send/receive: either a
// host array element (Sym, Addr) or, for receives, a literal constant.
type ExtRef struct {
	Sym     *w2.Symbol // nil when the external is a literal
	Addr    w2.Affine  // flattened element index within Sym
	Literal float64    // used when Sym == nil
}

func (e *ExtRef) String() string {
	if e == nil {
		return "-"
	}
	if e.Sym == nil {
		return fmt.Sprintf("%g", e.Literal)
	}
	return fmt.Sprintf("%s[%s]", e.Sym.Name, e.Addr)
}

// Node is one dag node: an abstract operation together with its operands
// and attributes.
type Node struct {
	ID   int
	Op   Op
	Args []*Node

	FVal float64      // OpConst
	Sym  *w2.Symbol   // OpLoad/OpStore: array; OpRead/OpWrite: scalar
	Addr w2.Affine    // OpLoad/OpStore: affine element index
	Dir  w2.Direction // OpRecv/OpSend
	Chan w2.Channel   // OpRecv/OpSend
	Ext  *ExtRef      // OpRecv/OpSend host binding

	// Deps are explicit ordering edges in addition to operand edges:
	// queue order, memory order, and register anti-dependences.  The
	// node must issue after every dep has issued (latency rules are
	// applied by the scheduler).
	Deps []*Node

	// Pos is the source position the node was generated from.
	Pos w2.Pos

	// IOSeq numbers queue operations per (direction, channel) in
	// program order; it is the ordinal used by the skew analysis.
	IOSeq int
}

func (n *Node) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n%d = %s", n.ID, n.Op)
	switch n.Op {
	case OpConst:
		fmt.Fprintf(&sb, " %g", n.FVal)
	case OpRecv:
		fmt.Fprintf(&sb, " %s.%s ext=%s", n.Dir, n.Chan, n.Ext)
	case OpSend:
		fmt.Fprintf(&sb, " %s.%s", n.Dir, n.Chan)
	case OpLoad, OpStore:
		fmt.Fprintf(&sb, " %s[%s]", n.Sym.Name, n.Addr)
	case OpRead, OpWrite:
		fmt.Fprintf(&sb, " %s", n.Sym.Name)
	}
	for _, a := range n.Args {
		fmt.Fprintf(&sb, " n%d", a.ID)
	}
	if n.Op == OpSend && n.Ext != nil {
		fmt.Fprintf(&sb, " ext=%s", n.Ext)
	}
	return sb.String()
}

// Block is a basic block: a dag over Nodes, listed in creation
// (program) order.
type Block struct {
	ID    int
	Nodes []*Node
}

// Region is a node of the structured flowgraph: either a basic block or
// a counted loop.  W2's constant loop bounds make the flowgraph
// reducible and fully structured, so a region tree represents it
// exactly.
type Region interface {
	regionNode()
}

// BlockRegion wraps a basic block.
type BlockRegion struct {
	Block *Block
}

// LoopRegion is a counted loop: Body executes Hi−Lo+1 times with the
// index taking Lo..Hi.
type LoopRegion struct {
	Loop *w2.ForStmt
	Lo   int64
	Hi   int64
	Body []Region
}

func (*BlockRegion) regionNode() {}
func (*LoopRegion) regionNode()  {}

// Trips returns the iteration count of the loop.
func (l *LoopRegion) Trips() int64 { return l.Hi - l.Lo + 1 }

// Program is the compiled intermediate form of one W2 module's cell
// program: the flowgraphs of the called functions, concatenated in call
// order.
type Program struct {
	Module *w2.Module
	Info   *w2.Info
	Funcs  []*Func
}

// Func is the flowgraph of one cell function.
type Func struct {
	Decl    *w2.FuncDecl
	Regions []Region
	Blocks  []*Block // all blocks, in program order
	// NumRecv and NumSend count the dynamic queue operations per
	// [direction][channel] (static statements weighted by the trip
	// counts of their enclosing loops).
	NumRecv [2][2]int64
	NumSend [2][2]int64
}

// Walk visits the regions depth first, calling f on every block.
func Walk(regions []Region, f func(*Block)) {
	for _, r := range regions {
		switch r := r.(type) {
		case *BlockRegion:
			f(r.Block)
		case *LoopRegion:
			Walk(r.Body, f)
		}
	}
}

// Dump renders a function's region tree for debugging and golden tests.
func (fn *Func) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s\n", fn.Decl.Name)
	dumpRegions(&sb, fn.Regions, 1)
	return sb.String()
}

func dumpRegions(sb *strings.Builder, regions []Region, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, r := range regions {
		switch r := r.(type) {
		case *BlockRegion:
			fmt.Fprintf(sb, "%sblock b%d\n", indent, r.Block.ID)
			for _, n := range r.Block.Nodes {
				fmt.Fprintf(sb, "%s  %s\n", indent, n)
			}
		case *LoopRegion:
			fmt.Fprintf(sb, "%sloop %s = %d..%d\n", indent, r.Loop.Var, r.Lo, r.Hi)
			dumpRegions(sb, r.Body, depth+1)
		}
	}
}
