package fastexec

import (
	"math"

	"warp/internal/mcode"
)

// lower.go lowers the decoded cell program once, at Compile, into the op
// stream the one-wide body (runCell) walks: everything a word's fields
// decide statically — which fields issue, which of them land a cycle
// later, which codes are plain arithmetic, whether a store must wait for
// the word's loads — is resolved here, and a run pays only for the ops.
// The stream is as long as the microcode's fields, whatever the trip
// counts.

// opKind is what one op does.
type opKind uint8

const (
	// The read phase: the registers as they stand at the word's issue.
	opSend      opKind = iota // send register a on channel x
	opStore                   // store register a at memory reference x (the word loads nothing)
	opStoreHold               // hold register a and memory reference x's address in slot b (the word also loads)
	opFadd                    // dst ← a + b, landing FPULatency later
	opFsub                    // dst ← a − b, likewise
	opFmul                    // dst ← a · b, likewise
	opEval                    // field x of alus by mcode.AluOp.Eval, landing FPULatency later
	opMov                     // dst ← a, held to the end of the cycle

	// The write phase, after the FPU results due by the next cycle land.
	opRecv      // dst ← the next word on channel x
	opLoad      // dst ← memory reference x
	opStoreLand // slot b's store lands
	opCommit    // the held one-cycle results land (mcode.CellRegs)
	opLit       // dst ← lits[x]
)

// op is one lowered field: 8 bytes.
type op struct {
	kind      opKind
	dst, a, b uint8
	x         uint32 // channel, memory reference, ALU field or literal index
}

// step is one plan word lowered: skip idle cycles, then ops[lo:mid]
// before the cycle's landing and ops[mid:hi] after it, then the loops it
// closes (the code's Ends[endLo:endHi]).
type step struct {
	skip         int64
	lo, mid, hi  int32
	endLo, endHi int32
	depth        int32
}

// lowered is the op stream of a plan.
type lowered struct {
	steps []step
	ops   []op
	mems  []mcode.MemField // the memory fields, for their addresses
	alus  []mcode.AluOp    // the fields only Eval computes
	lits  []float64
}

// reg narrows a register number to an op's byte.  One outside the file
// stays outside it, so the body faults on it as it did on the field.
func reg(r mcode.Reg) uint8 { return uint8(min(uint(r), math.MaxUint8)) }

// lower lowers the decoded program into the ops runCell walks.
func lower(code *mcode.Decoded) lowered {
	var l lowered
	l.steps = make([]step, len(code.Words))
	for i := range code.Words {
		w := &code.Words[i]
		s := &l.steps[i]
		s.skip, s.endLo, s.endHi, s.depth = w.Skip, w.EndLo, w.EndHi, int32(w.Depth)
		s.lo = int32(len(l.ops))
		for _, io := range code.IO[w.IOLo:w.RecvLo] {
			l.ops = append(l.ops, op{kind: opSend, a: reg(io.Reg), x: uint32(io.Ch)})
		}
		// A store lands at once unless the word loads: a load reads the
		// memory as it stood before the word's stores.
		held := uint8(0)
		for port := range w.Mem {
			if m := &w.Mem[port]; m.Kind == mcode.MemStore {
				o := op{kind: opStore, a: reg(m.Reg), x: l.mem(m)}
				if w.Loads {
					o.kind, o.b = opStoreHold, held
					held++
				}
				l.ops = append(l.ops, o)
			}
		}
		movs := false
		for _, f := range [...]struct {
			on bool
			op *mcode.AluOp
		}{{w.HasAdd, &w.Add}, {w.HasMul, &w.Mul}, {w.HasMov, &w.Mov}} {
			if !f.on {
				continue
			}
			o := op{dst: reg(f.op.Dst), a: reg(f.op.Src[0]), b: reg(f.op.Src[1])}
			switch {
			case f.op.Code.Latency() == 1:
				o.kind, movs = opMov, true
			case f.op.Code == mcode.Fadd:
				o.kind = opFadd
			case f.op.Code == mcode.Fsub:
				o.kind = opFsub
			case f.op.Code == mcode.Fmul:
				o.kind = opFmul
			default:
				o.kind, o.x = opEval, uint32(len(l.alus))
				l.alus = append(l.alus, *f.op)
			}
			l.ops = append(l.ops, o)
		}
		s.mid = int32(len(l.ops))
		// The writes in the machine's order: receives, loads, stores, the
		// one-cycle ALU results, the literal.
		for _, io := range code.IO[w.RecvLo:w.IOHi] {
			l.ops = append(l.ops, op{kind: opRecv, dst: reg(io.Reg), x: uint32(io.Ch)})
		}
		for port := range w.Mem {
			if m := &w.Mem[port]; m.Kind == mcode.MemLoad {
				l.ops = append(l.ops, op{kind: opLoad, dst: reg(m.Reg), x: l.mem(m)})
			}
		}
		for slot := range held {
			l.ops = append(l.ops, op{kind: opStoreLand, b: slot})
		}
		if movs {
			l.ops = append(l.ops, op{kind: opCommit})
		}
		if w.HasLit {
			l.ops = append(l.ops, op{kind: opLit, dst: reg(w.Lit.Dst), x: uint32(len(l.lits))})
			l.lits = append(l.lits, w.Lit.Value)
		}
		s.hi = int32(len(l.ops))
	}
	return l
}

// mem appends a memory field and returns its index.
func (l *lowered) mem(m *mcode.MemField) uint32 {
	l.mems = append(l.mems, *m)
	return uint32(len(l.mems) - 1)
}
