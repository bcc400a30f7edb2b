// Package ir defines the compiler's central data structure (§6.1 of the
// paper): a flowgraph whose nodes are basic blocks, with the computation
// of each block represented as a directed acyclic graph (dag) of
// abstract Warp-cell operations.  At this level the cell is modelled as
// a simple processor with memory-to-memory operations and no registers;
// the code generator later maps dag nodes to micro-operations, allocates
// registers and schedules the code.
package ir

// Op is an abstract cell operation.
type Op int

// Abstract operations.
const (
	OpInvalid Op = iota

	// OpConst produces a floating constant (FVal).
	OpConst

	// OpRecv pops the next word from the queue of channel Chan on side
	// Dir.  Ext describes the host-side binding (meaningful on the
	// boundary cell only).
	OpRecv
	// OpSend pushes Args[0] into the neighbour's queue on channel Chan,
	// side Dir.  Ext names the host location for the last cell.
	OpSend

	// OpLoad reads cell data memory at the affine address Addr of array
	// Sym.  After computation decomposition the address arrives from the
	// IU over the Adr path (a "receive-address" operation, §6.1).
	OpLoad
	// OpStore writes Args[0] to cell memory (same addressing).
	OpStore

	// Floating-point arithmetic (the two FPUs of Figure 2-2).
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFneg

	// Comparisons produce a boolean (machine: FPU condition result).
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Boolean connectives over comparison results.
	OpAnd
	OpOr
	OpNot

	// OpSelect is Args[0] ? Args[1] : Args[2]; used to predicate
	// conditionals so that cell timing stays data independent.
	OpSelect

	// OpRead produces the value of scalar Sym on entry to the block
	// (a register read at code-generation time).
	OpRead
	// OpWrite records Args[0] as the value of scalar Sym on exit from
	// the block (a register write).
	OpWrite
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpConst:   "const",
	OpRecv:    "recv",
	OpSend:    "send",
	OpLoad:    "load",
	OpStore:   "store",
	OpFadd:    "fadd",
	OpFsub:    "fsub",
	OpFmul:    "fmul",
	OpFdiv:    "fdiv",
	OpFneg:    "fneg",
	OpEq:      "cmpeq",
	OpNe:      "cmpne",
	OpLt:      "cmplt",
	OpLe:      "cmple",
	OpGt:      "cmpgt",
	OpGe:      "cmpge",
	OpAnd:     "and",
	OpOr:      "or",
	OpNot:     "not",
	OpSelect:  "select",
	OpRead:    "read",
	OpWrite:   "write",
}

func (op Op) String() string { return opNames[op] }

// HasResult reports whether the op produces a value.
func (op Op) HasResult() bool {
	switch op {
	case OpSend, OpStore, OpWrite:
		return false
	}
	return true
}

// IsIO reports whether the op is a queue operation.
func (op Op) IsIO() bool { return op == OpRecv || op == OpSend }

// IsMem reports whether the op references cell data memory.
func (op Op) IsMem() bool { return op == OpLoad || op == OpStore }

// IsCommutative reports whether Args[0] and Args[1] may be exchanged.
func (op Op) IsCommutative() bool {
	switch op {
	case OpFadd, OpFmul, OpEq, OpNe, OpAnd, OpOr:
		return true
	}
	return false
}

// IsAssociative reports whether the op may be re-associated (used by
// height reduction).  Floating re-association changes rounding; the
// paper's compiler applies it anyway as a local optimization, and so do
// we.
func (op Op) IsAssociative() bool {
	switch op {
	case OpFadd, OpFmul, OpAnd, OpOr:
		return true
	}
	return false
}
