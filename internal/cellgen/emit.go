package cellgen

import (
	"fmt"
	"sort"

	"warp/internal/ir"
	"warp/internal/mcode"
)

// This file assigns temporary registers to a scheduled block and emits
// the microinstructions.

// assignRegs allocates temporary registers for value-producing nodes
// over the register pool left after dedicated scalar and constant
// registers, reusing registers whose values are dead.
func (g *gen) assignRegs(s *blockSchedule) (map[*ir.Node]mcode.Reg, error) {
	// Last use per node: the max issue over consumers, but never before
	// the producer's own write lands — an idle register must stay
	// reserved until its in-flight result has arrived, or a reuser
	// would be clobbered.
	lastUse := make(map[*ir.Node]int64)
	for _, n := range s.block.Nodes {
		for _, a := range n.Args {
			if t := s.issue[n]; t > lastUse[a] {
				lastUse[a] = t
			}
		}
	}
	for _, n := range s.nodes {
		if land := s.issue[n] + resultLatency(n); land > lastUse[n] {
			lastUse[n] = land
		}
	}

	needsReg := func(n *ir.Node) bool {
		switch n.Op {
		case ir.OpRecv, ir.OpLoad, ir.OpFadd, ir.OpFsub, ir.OpFmul,
			ir.OpFdiv, ir.OpFneg, ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe,
			ir.OpGt, ir.OpGe, ir.OpAnd, ir.OpOr, ir.OpNot, ir.OpSelect:
			return true
		}
		return false
	}

	regs := make(map[*ir.Node]mcode.Reg)
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
		end := lastUse[n]
		if end < t {
			end = t
		}
		found := false
		for i := range pool {
			if pool[i].freeAt <= t {
				regs[n] = pool[i].reg
				pool[i].freeAt = end + 1
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

// operandReg resolves the register holding a node's value.
func (g *gen) operandReg(n *ir.Node, regs map[*ir.Node]mcode.Reg) (mcode.Reg, error) {
	switch n.Op {
	case ir.OpConst:
		r, ok := g.res.ConstRegs[n.FVal]
		if !ok {
			return 0, fmt.Errorf("cellgen: constant %g has no register", n.FVal)
		}
		return r, nil
	case ir.OpRead:
		r, ok := g.res.ScalarRegs[n.Sym]
		if !ok {
			return 0, fmt.Errorf("cellgen: scalar %s has no home register", n.Sym.Name)
		}
		return r, nil
	}
	if r, ok := regs[n]; ok {
		return r, nil
	}
	return 0, fmt.Errorf("cellgen: node n%d (%s) has no result register", n.ID, n.Op)
}

var aluCodeOf = map[ir.Op]mcode.AluCode{
	ir.OpFadd: mcode.Fadd, ir.OpFsub: mcode.Fsub, ir.OpFneg: mcode.Fneg,
	ir.OpFmul: mcode.Fmul, ir.OpFdiv: mcode.Fdiv,
	ir.OpEq: mcode.CmpEQ, ir.OpNe: mcode.CmpNE, ir.OpLt: mcode.CmpLT,
	ir.OpLe: mcode.CmpLE, ir.OpGt: mcode.CmpGT, ir.OpGe: mcode.CmpGE,
	ir.OpAnd: mcode.BoolAnd, ir.OpOr: mcode.BoolOr, ir.OpNot: mcode.BoolNot,
	ir.OpSelect: mcode.Sel,
}

func (g *gen) extInfo(e *ir.ExtRef) (*mcode.AddrInfo, *float64) {
	if e == nil {
		return nil, nil
	}
	if e.Sym == nil {
		v := e.Literal
		return nil, &v
	}
	return &mcode.AddrInfo{
		Sym:    e.Sym,
		Base:   e.Sym.Base,
		Affine: e.Addr,
	}, nil
}

// emitBlock converts a scheduled block into microinstructions.
func (g *gen) emitBlock(s *blockSchedule, regs map[*ir.Node]mcode.Reg) ([]*mcode.Instr, error) {
	instrs := make([]*mcode.Instr, s.len)
	for i := range instrs {
		instrs[i] = &mcode.Instr{}
	}
	// Stable per-cycle ordering for memory ports.
	byCycle := make(map[int64][]*ir.Node)
	for _, n := range s.nodes {
		byCycle[s.issue[n]] = append(byCycle[s.issue[n]], n)
	}
	var cycles []int64
	for t := range byCycle {
		cycles = append(cycles, t)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })

	for _, t := range cycles {
		in := instrs[t]
		nodes := byCycle[t]
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
		for _, n := range nodes {
			// Debug map: the first node placed into the word (lowest ID in
			// this cycle) claims the instruction's source position.
			if in.Pos.Line == 0 && n.Pos.Line != 0 {
				in.Pos = n.Pos
			}
			switch n.Op {
			case ir.OpRecv:
				ext, lit := g.extInfo(n.Ext)
				r, ok := regs[n]
				if !ok {
					return nil, fmt.Errorf("cellgen: receive n%d lost its register", n.ID)
				}
				in.IO = append(in.IO, &mcode.IOOp{
					Recv: true, Dir: n.Dir, Chan: n.Chan, Reg: r,
					Ext: ext, ExtLiteral: lit,
				})
			case ir.OpSend:
				src, err := g.operandReg(n.Args[0], regs)
				if err != nil {
					return nil, err
				}
				ext, lit := g.extInfo(n.Ext)
				in.IO = append(in.IO, &mcode.IOOp{
					Recv: false, Dir: n.Dir, Chan: n.Chan, Reg: src,
					Ext: ext, ExtLiteral: lit,
				})
			case ir.OpLoad, ir.OpStore:
				op := &mcode.MemOp{
					Store: n.Op == ir.OpStore,
					Addr: mcode.AddrInfo{
						Sym: n.Sym, Base: n.Sym.Base, Affine: n.Addr,
					},
				}
				if n.Op == ir.OpStore {
					src, err := g.operandReg(n.Args[0], regs)
					if err != nil {
						return nil, err
					}
					op.Reg = src
				} else {
					r, ok := regs[n]
					if !ok {
						return nil, fmt.Errorf("cellgen: load n%d lost its register", n.ID)
					}
					op.Reg = r
				}
				placed := false
				for slot := 0; slot < mcode.MemPorts; slot++ {
					if in.Mem[slot] == nil {
						in.Mem[slot] = op
						placed = true
						break
					}
				}
				if !placed {
					return nil, fmt.Errorf("cellgen: more than %d memory references in cycle %d", mcode.MemPorts, t)
				}
			case ir.OpWrite:
				src, err := g.operandReg(n.Args[0], regs)
				if err != nil {
					return nil, err
				}
				dst := g.res.ScalarRegs[n.Sym]
				if in.Mov != nil {
					return nil, fmt.Errorf("cellgen: move field double-booked in cycle %d", t)
				}
				in.Mov = &mcode.AluOp{Code: mcode.Mov, Dst: dst, Src: [3]mcode.Reg{src}}
			default:
				code, ok := aluCodeOf[n.Op]
				if !ok {
					return nil, fmt.Errorf("cellgen: cannot emit %s", n.Op)
				}
				op := &mcode.AluOp{Code: code}
				r, ok := regs[n]
				if !ok {
					return nil, fmt.Errorf("cellgen: node n%d lost its register", n.ID)
				}
				op.Dst = r
				for i, a := range n.Args {
					src, err := g.operandReg(a, regs)
					if err != nil {
						return nil, err
					}
					op.Src[i] = src
				}
				if code.OnMulUnit() {
					if in.Mul != nil {
						return nil, fmt.Errorf("cellgen: MUL unit double-booked in cycle %d", t)
					}
					in.Mul = op
				} else {
					if in.Add != nil {
						return nil, fmt.Errorf("cellgen: ADD unit double-booked in cycle %d", t)
					}
					in.Add = op
				}
			}
		}
	}
	return instrs, nil
}

// scheduleBlock schedules, allocates and emits one block.
func (g *gen) scheduleBlock(b *ir.Block) ([]*mcode.Instr, error) {
	bg, err := newBlockGraph(b, blockEdges(b))
	if err != nil {
		return nil, err
	}
	s := bg.listSchedule()
	regs, err := g.assignRegs(s)
	if err != nil {
		return nil, err
	}
	return g.emitBlock(s, regs)
}
