package cellgen

import (
	"errors"
	"fmt"

	"warp/internal/ir"
	"warp/internal/mcode"
	"warp/internal/w2"
)

// This file lowers scheduled nodes into microinstruction words — one
// emitter for both schedulers: a list-scheduled block is the one
// iteration of a schedule as long as the block, a pipelined loop's
// prologue, kernel and epilogue are ranges of its flat schedule — and
// assigns a block's temporary registers.

// needsReg reports whether the node's result needs a temporary register.
func needsReg(n *ir.Node) bool { return needsInstr(n) && n.Op.HasResult() }

// lastUses returns, per value node, the last cycle its register is busy:
// the latest issue among its consumers, and never before the node's own
// write lands — an idle register must stay reserved until its in-flight
// result has arrived, or a reuser would be clobbered.
func lastUses(nodes []*ir.Node, at map[*ir.Node]int64) map[*ir.Node]int64 {
	last := make(map[*ir.Node]int64, len(nodes))
	for _, n := range nodes {
		if needsReg(n) {
			last[n] = at[n] + resultLatency(n)
		}
	}
	for _, n := range nodes {
		for _, a := range n.Args {
			if t, ok := last[a]; ok && at[n] > t {
				last[a] = at[n]
			}
		}
	}
	return last
}

// assignRegs allocates temporary registers for value-producing nodes
// over the register pool left after dedicated scalar and constant
// registers, reusing registers whose values are dead.
func (g *gen) assignRegs(s *blockSchedule) (map[*ir.Node]mcode.Reg, error) {
	lastUse := lastUses(s.nodes, s.issue)
	regs := make(map[*ir.Node]mcode.Reg, len(lastUse))
	type slot struct {
		reg    mcode.Reg
		freeAt int64
	}
	var pool []slot
	for r := g.tempBase; r < mcode.NumRegs; r++ {
		pool = append(pool, slot{reg: mcode.Reg(r), freeAt: -1})
	}
	for _, n := range s.nodes {
		if !needsReg(n) {
			continue
		}
		t := s.issue[n]
		found := false
		for i := range pool {
			if pool[i].freeAt <= t {
				regs[n] = pool[i].reg
				pool[i].freeAt = lastUse[n] + 1
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cellgen: block b%d needs more than %d temporary registers (no spill path to cell memory is implemented; restructure the program)",
				s.block.ID, len(pool))
		}
	}
	return regs, nil
}

// emitBlock allocates a list-scheduled block's registers and emits it:
// no code item for an empty block, else one straight run.
func (g *gen) emitBlock(s *blockSchedule) ([]mcode.CodeItem, error) {
	regs, err := g.assignRegs(s)
	if err != nil {
		return nil, err
	}
	e := emitter{g: g, nodes: s.nodes, at: s.issue, ii: s.len, trips: 1, regs: regs, copies: 1}
	instrs, err := e.emitRange(0, s.len)
	if len(instrs) == 0 || err != nil {
		return nil, err
	}
	return []mcode.CodeItem{&mcode.Straight{Instrs: instrs}}, nil
}

// emitter lowers the instances of one schedule into microinstruction
// words: iteration k's instance of node n issues in flat cycle
// k·ii + at[n].  The schedule's path decides an instance's register and
// addresses.
type emitter struct {
	g         *gen
	nodes     []*ir.Node // issue order: by offset, then ID
	at        map[*ir.Node]int64
	ii, trips int64

	// Iteration k's value of n is in regs[n] + (k mod copies)·stride:
	// a block has one copy, a kernel one per overlapped iteration.
	regs           map[*ir.Node]mcode.Reg
	copies, stride int64

	// The pipelined loop (nil in a block), its first index, and whether
	// the range emitted is the kernel: its instances keep the loop term
	// and shift it by their iteration (the loop counter advances by the
	// unroll degree per repetition), where prologue and epilogue
	// instances substitute their iteration's index.
	loop   *w2.ForStmt
	lo     int64
	kernel bool
}

// emitRange emits the instances that issue in flat cycles [from, to)
// into fresh words, node by node in issue order: that order decides
// which instance claims a word's source position and which memory port
// a reference takes.
func (e *emitter) emitRange(from, to int64) ([]*mcode.Instr, error) {
	if to <= from {
		return nil, nil
	}
	instrs := nops(to - from)
	for _, n := range e.nodes {
		o := e.at[n]
		for k := max(0, (from-o+e.ii-1)/e.ii); k < e.trips; k++ {
			abs := k*e.ii + o
			if abs < from {
				continue
			}
			if abs >= to {
				break
			}
			if err := e.place(instrs[abs-from], n, k); err != nil {
				return nil, fmt.Errorf("cellgen: cycle %d, n%d (%s): %v", abs, n.ID, n.Op, err)
			}
		}
	}
	return instrs, nil
}

// nops returns n empty words, allocated as one slab.
func nops(n int64) []*mcode.Instr {
	words := make([]mcode.Instr, n)
	instrs := make([]*mcode.Instr, n)
	for i := range instrs {
		instrs[i] = &words[i]
	}
	return instrs
}

// reg is the register holding iteration k's value of n.
func (e *emitter) reg(n *ir.Node, k int64) (mcode.Reg, error) {
	switch n.Op {
	case ir.OpConst:
		r, ok := e.g.res.ConstRegs[n.FVal]
		if !ok {
			return 0, fmt.Errorf("constant %g has no register", n.FVal)
		}
		return r, nil
	case ir.OpRead:
		r, ok := e.g.res.ScalarRegs[n.Sym]
		if !ok {
			return 0, fmt.Errorf("scalar %s has no home register", n.Sym.Name)
		}
		return r, nil
	}
	r, ok := e.regs[n]
	if !ok {
		return 0, fmt.Errorf("n%d (%s) has no result register", n.ID, n.Op)
	}
	return r + mcode.Reg(k%e.copies*e.stride), nil
}

// addr is iteration k's address of the element aff of sym.
func (e *emitter) addr(sym *w2.Symbol, aff w2.Affine, k int64) mcode.AddrInfo {
	info := mcode.AddrInfo{Sym: sym, Base: sym.Base, Affine: aff}
	switch {
	case e.loop == nil: // a block: the enclosing loops' indices, as written
	case e.kernel:
		info.ShiftLoop, info.Shift = e.loop, k
	default:
		info.Affine = aff.Subst(e.loop, e.lo+k)
	}
	return info
}

var aluCodeOf = map[ir.Op]mcode.AluCode{
	ir.OpFadd: mcode.Fadd, ir.OpFsub: mcode.Fsub, ir.OpFneg: mcode.Fneg,
	ir.OpFmul: mcode.Fmul, ir.OpFdiv: mcode.Fdiv,
	ir.OpEq: mcode.CmpEQ, ir.OpNe: mcode.CmpNE, ir.OpLt: mcode.CmpLT,
	ir.OpLe: mcode.CmpLE, ir.OpGt: mcode.CmpGT, ir.OpGe: mcode.CmpGE,
	ir.OpAnd: mcode.BoolAnd, ir.OpOr: mcode.BoolOr, ir.OpNot: mcode.BoolNot,
	ir.OpSelect: mcode.Sel,
}

// place lowers iteration k's instance of n into the word in: the one
// function in this package that fills an instruction field.
func (e *emitter) place(in *mcode.Instr, n *ir.Node, k int64) error {
	// Debug map: the first instance placed into the word claims the
	// instruction's source position.
	if in.Pos.Line == 0 && n.Pos.Line != 0 {
		in.Pos = n.Pos
	}
	var src [3]mcode.Reg
	for i, a := range n.Args {
		r, err := e.reg(a, k)
		if err != nil {
			return err
		}
		src[i] = r
	}
	var dst mcode.Reg
	if needsReg(n) {
		r, err := e.reg(n, k)
		if err != nil {
			return err
		}
		dst = r
	}
	switch n.Op {
	case ir.OpRecv, ir.OpSend:
		reg := dst
		if n.Op == ir.OpSend {
			reg = src[0]
		}
		io := mcode.IOOp{Recv: n.Op == ir.OpRecv, Dir: n.Dir, Chan: n.Chan, Reg: reg}
		switch x := n.Ext; {
		case x == nil:
		case x.Sym == nil:
			io.IsLiteral, io.Literal = true, x.Literal
		default:
			io.Ext = e.addr(x.Sym, x.Addr, k)
		}
		in.IO = append(in.IO, io)
	case ir.OpLoad, ir.OpStore:
		slot := 0
		for slot < mcode.MemPorts && in.Mem[slot].Kind != mcode.MemNone {
			slot++
		}
		if slot == mcode.MemPorts {
			return fmt.Errorf("more than %d memory references in one word", mcode.MemPorts)
		}
		in.Mem[slot] = mcode.MemOp{Kind: mcode.MemLoad, Reg: dst, Addr: e.addr(n.Sym, n.Addr, k)}
		if n.Op == ir.OpStore {
			in.Mem[slot].Kind, in.Mem[slot].Reg = mcode.MemStore, src[0]
		}
	case ir.OpWrite:
		if in.HasMov {
			return errors.New("the move field is double-booked")
		}
		in.HasMov, in.Mov = true, mcode.AluOp{Code: mcode.Mov, Dst: e.g.res.ScalarRegs[n.Sym], Src: src}
	default:
		code, ok := aluCodeOf[n.Op]
		if !ok {
			return fmt.Errorf("no instruction field computes %s", n.Op)
		}
		op := mcode.AluOp{Code: code, Dst: dst, Src: src}
		if code.OnMulUnit() {
			if in.HasMul {
				return errors.New("the MUL unit is double-booked")
			}
			in.HasMul, in.Mul = true, op
		} else {
			if in.HasAdd {
				return errors.New("the ADD unit is double-booked")
			}
			in.HasAdd, in.Add = true, op
		}
	}
	return nil
}
