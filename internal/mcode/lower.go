package mcode

import (
	"math"

	"warp/internal/w2"
)

// lower.go is the one lowered form of a word's fields, which Decode emits
// in the walk that builds the words: every executor body (the simulator's
// one-wide and lane-wide issue, the fast plan's one-wide and lane-wide
// cell) walks these ops, so what a field does is decided once, here.  A
// word's ops come in the simulator's instruction order — its queue fields
// in the instruction's order, its memory ports in port order, then its
// ADD, MUL and move fields — because the first field that faults is the
// one a run reports.

// OpKind is what one op does.
type OpKind uint8

const (
	OpRecv      OpKind = iota // Dst ← the next word of channel X's queue
	OpSend                    // register A onto channel X: the next cell's queue or the host
	OpRecvRight               // a receive from the right: refused (rightward flow only)
	OpSendLeft                // a send to the left: refused
	OpLoad                    // Dst ← the memory word memory port B addresses, bound to Mems[X]
	OpStore                   // register A to the memory word port B addresses, bound to Mems[X]
	OpFadd                    // Dst ← A + B, landing FPULatency later
	OpFsub                    // Dst ← A − B, likewise
	OpFmul                    // Dst ← A · B, likewise
	OpMov                     // Dst ← A, landing at the end of the cycle
	OpEval                    // Dst ← code(A, B, C) by AluOp.Eval, landing FPULatency later; X = code | C<<8
)

// Op is one lowered field: 8 bytes.  A register outside the file stays
// outside it (narrow), so a body faults on it as it would on the field.
type Op struct {
	Kind      OpKind
	Dst, A, B uint8
	X         uint32 // channel, memory-field index, or an OpEval's code and third source
}

// Eval computes an OpEval op's result over the cell register file, as
// AluOp.Eval computes its field's.
func (o *Op) Eval(regs *[NumRegs]float64) (float64, error) {
	return eval(AluCode(uint8(o.X)), regs, Reg(o.A), Reg(o.B), Reg(o.X>>8))
}

// Alu returns the FPU or move op as the field it was lowered from, for
// AluOp.EvalBatch.
func (o *Op) Alu() AluOp {
	f := AluOp{Dst: Reg(o.Dst), Src: [3]Reg{Reg(o.A), Reg(o.B)}}
	switch o.Kind {
	case OpFadd:
		f.Code = Fadd
	case OpFsub:
		f.Code = Fsub
	case OpFmul:
		f.Code = Fmul
	case OpMov:
		f.Code = Mov
	default:
		f.Code, f.Src[2] = AluCode(uint8(o.X)), Reg(o.X>>8)
	}
	return f
}

// narrow narrows a register number, or an ALU code, to an op's byte: one
// outside the file stays outside it.
func narrow[T ~int](r T) uint8 { return uint8(min(uint(r), math.MaxUint8)) }

// ioOp lowers a queue field.
func ioOp(io *IOOp) Op {
	switch {
	case io.Recv && io.Dir != w2.DirL:
		return Op{Kind: OpRecvRight}
	case io.Recv:
		return Op{Kind: OpRecv, Dst: narrow(io.Reg), X: uint32(io.Chan)}
	case io.Dir != w2.DirR:
		return Op{Kind: OpSendLeft}
	}
	return Op{Kind: OpSend, A: narrow(io.Reg), X: uint32(io.Chan)}
}

// memOp lowers memory port port's field, its address bound to Mems[mem].
func memOp(mo *MemOp, port, mem int) Op {
	if mo.Kind == MemStore {
		return Op{Kind: OpStore, A: narrow(mo.Reg), B: uint8(port), X: uint32(mem)}
	}
	return Op{Kind: OpLoad, Dst: narrow(mo.Reg), B: uint8(port), X: uint32(mem)}
}

// aluOp lowers an FPU or move field.  A field whose code is Mov is a move,
// whichever field carries it; the plain arithmetic has ops of its own and
// every other code goes through AluOp.Eval.
func aluOp(f *AluOp) Op {
	o := Op{Dst: narrow(f.Dst), A: narrow(f.Src[0]), B: narrow(f.Src[1])}
	switch f.Code {
	case Mov:
		o.Kind = OpMov
	case Fadd:
		o.Kind = OpFadd
	case Fsub:
		o.Kind = OpFsub
	case Fmul:
		o.Kind = OpFmul
	default:
		o.Kind, o.X = OpEval, uint32(narrow(f.Code))|uint32(narrow(f.Src[2]))<<8
	}
	return o
}
