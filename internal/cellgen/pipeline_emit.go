package cellgen

import (
	"fmt"

	"warp/internal/ir"
	"warp/internal/mcode"
	"warp/internal/w2"
)

// This file materializes a modulo schedule into prologue, kernel and
// epilogue code with modulo variable expansion.

// emitReject is why emitModulo turned a schedule down.
type emitReject int

const (
	emitOK          emitReject = iota
	rejectRegisters            // the values' registers, one per kernel copy, exceed the temporary pool
	rejectTrips                // fewer iterations than the pipeline's stages plus one unrolled kernel
	numEmitRejects
)

// emitModulo turns a kernel schedule into code items.  A reject other
// than emitOK sends the caller to a larger II or the fallback.
func (g *gen) emitModulo(r *ir.LoopRegion, b *ir.Block, ms *moduloResult, trips int64) ([]mcode.CodeItem, emitReject, error) {
	ii := ms.ii

	// Last use (flat offset) per value node.
	lastUse := map[*ir.Node]int64{}
	values := []*ir.Node{}
	needsReg := func(n *ir.Node) bool {
		switch n.Op {
		case ir.OpRecv, ir.OpLoad, ir.OpFadd, ir.OpFsub, ir.OpFmul,
			ir.OpFdiv, ir.OpFneg, ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe,
			ir.OpGt, ir.OpGe, ir.OpAnd, ir.OpOr, ir.OpNot, ir.OpSelect:
			return true
		}
		return false
	}
	for _, n := range ms.nodes {
		if needsReg(n) {
			values = append(values, n)
			lastUse[n] = ms.off[n]
		}
	}
	for _, n := range ms.nodes {
		for _, a := range n.Args {
			if needsReg(a) && ms.off[n] > lastUse[a] {
				lastUse[a] = ms.off[n]
			}
		}
	}
	// Registers stay busy until their in-flight write lands.
	for _, v := range values {
		if land := ms.off[v] + resultLatency(v); land > lastUse[v] {
			lastUse[v] = land
		}
	}

	// Unroll degree: enough copies that a value's register is not
	// redefined while the previous iteration's value is still live.
	u := int64(1)
	for _, v := range values {
		life := lastUse[v] - ms.off[v] + 1
		if need := (life + ii - 1) / ii; need > u {
			u = need
		}
	}

	// Register demand: one register per value per copy (sound without
	// circular-interval analysis).
	pool := int64(mcode.NumRegs - g.tempBase)
	if int64(len(values))*u > pool {
		return nil, rejectRegisters, nil
	}

	// Shape: S pipeline stages, R kernel repetitions.
	span := ms.span
	s := (span + ii - 1) / ii
	p := (s - 1) * ii
	rReps := (trips - (s - 1)) / u
	if rReps < 1 {
		return nil, rejectTrips, nil
	}
	kernelLen := u * ii
	kernelEnd := p + rReps*kernelLen
	flatEnd := (trips-1)*ii + span

	// Register map: value × copy → register.
	regOf := func(v *ir.Node, k int64) mcode.Reg {
		c := k % u
		for i, cand := range values {
			if cand == v {
				return mcode.Reg(int64(g.tempBase) + c*int64(len(values)) + int64(i))
			}
		}
		panic("cellgen: value without a register in modulo emission")
	}

	em := &moduloEmitter{g: g, r: r, values: values, regOf: regOf}

	// Enumerate instances per absolute flat cycle.
	emitRange := func(from, to int64, kernel bool) ([]*mcode.Instr, error) {
		n := to - from
		if n <= 0 {
			return nil, nil
		}
		instrs := make([]*mcode.Instr, n)
		for i := range instrs {
			instrs[i] = &mcode.Instr{}
		}
		for _, node := range ms.nodes {
			o := ms.off[node]
			// Instances at abs = k·II + o within [from, to).
			kLo := (from - o + ii - 1) / ii
			if kLo < 0 {
				kLo = 0
			}
			for k := kLo; k < trips; k++ {
				abs := k*ii + o
				if abs < from {
					continue
				}
				if abs >= to {
					break
				}
				if err := em.emit(instrs[abs-from], node, k, kernel); err != nil {
					return nil, err
				}
			}
		}
		return instrs, nil
	}

	prologue, err := emitRange(0, p, false)
	if err != nil {
		return nil, emitOK, err
	}
	// Kernel body: the first repetition's instances, with Delta
	// expressed relative to the loop counter.
	kernelInstrs, err := emitRange(p, p+kernelLen, true)
	if err != nil {
		return nil, emitOK, err
	}
	epilogue, err := emitRange(kernelEnd, flatEnd, false)
	if err != nil {
		return nil, emitOK, err
	}

	id := g.loopID
	g.loopID++
	var items []mcode.CodeItem
	if len(prologue) > 0 {
		items = append(items, &mcode.Straight{Instrs: prologue})
	}
	items = append(items, &mcode.LoopItem{
		ID:    id,
		Trips: rReps,
		Body:  []mcode.CodeItem{&mcode.Straight{Instrs: kernelInstrs}},
		Src:   r.Loop,
		First: r.Lo,
		Step:  u,
	})
	if len(epilogue) > 0 {
		items = append(items, &mcode.Straight{Instrs: epilogue})
	}
	return items, emitOK, nil
}

// moduloEmitter fills single instructions for one instance (node n of
// iteration k).
type moduloEmitter struct {
	g      *gen
	r      *ir.LoopRegion
	values []*ir.Node
	regOf  func(v *ir.Node, k int64) mcode.Reg
}

// operand resolves the register holding node a's value for iteration k.
func (em *moduloEmitter) operand(a *ir.Node, k int64) (mcode.Reg, error) {
	switch a.Op {
	case ir.OpConst:
		r, ok := em.g.res.ConstRegs[a.FVal]
		if !ok {
			return 0, fmt.Errorf("cellgen: constant %g has no register", a.FVal)
		}
		return r, nil
	case ir.OpRead:
		r, ok := em.g.res.ScalarRegs[a.Sym]
		if !ok {
			return 0, fmt.Errorf("cellgen: scalar %s has no home register", a.Sym.Name)
		}
		return r, nil
	}
	return em.regOf(a, k), nil
}

// addrFor builds the AddrInfo of a memory access instance.  Kernel
// instances keep the loop term with a Delta offset (the loop counter
// advances by the unroll degree per repetition); prologue and epilogue
// instances substitute the concrete iteration.
func (em *moduloEmitter) addrFor(sym *w2.Symbol, aff w2.Affine, k int64, kernel bool) mcode.AddrInfo {
	info := mcode.AddrInfo{Sym: sym, Base: sym.Base, Affine: aff}
	if kernel {
		info.Delta = map[*w2.ForStmt]int64{em.r.Loop: k}
	} else {
		info.Affine = aff.Subst(em.r.Loop, em.r.Lo+k)
	}
	return info
}

func (em *moduloEmitter) extFor(e *ir.ExtRef, k int64, kernel bool) (*mcode.AddrInfo, *float64) {
	if e == nil {
		return nil, nil
	}
	if e.Sym == nil {
		v := e.Literal
		return nil, &v
	}
	info := em.addrFor(e.Sym, e.Addr, k, kernel)
	return &info, nil
}

// emit places one instance into an instruction word.
//
// For kernel instances, k is the iteration executed by the FIRST kernel
// repetition; later repetitions advance the loop counter, which the
// Delta/Step mapping accounts for.
func (em *moduloEmitter) emit(in *mcode.Instr, n *ir.Node, k int64, kernel bool) error {
	// Debug map: the first instance placed into the word claims the
	// instruction's source position (deterministic: nodes are visited in
	// schedule order).
	if in.Pos.Line == 0 && n.Pos.Line != 0 {
		in.Pos = n.Pos
	}
	switch n.Op {
	case ir.OpRecv:
		ext, lit := em.extFor(n.Ext, k, kernel)
		in.IO = append(in.IO, &mcode.IOOp{
			Recv: true, Dir: n.Dir, Chan: n.Chan, Reg: em.regOf(n, k),
			Ext: ext, ExtLiteral: lit,
		})
	case ir.OpSend:
		src, err := em.operand(n.Args[0], k)
		if err != nil {
			return err
		}
		ext, lit := em.extFor(n.Ext, k, kernel)
		in.IO = append(in.IO, &mcode.IOOp{
			Recv: false, Dir: n.Dir, Chan: n.Chan, Reg: src,
			Ext: ext, ExtLiteral: lit,
		})
	case ir.OpLoad, ir.OpStore:
		op := &mcode.MemOp{
			Store: n.Op == ir.OpStore,
			Addr:  em.addrFor(n.Sym, n.Addr, k, kernel),
		}
		if n.Op == ir.OpStore {
			src, err := em.operand(n.Args[0], k)
			if err != nil {
				return err
			}
			op.Reg = src
		} else {
			op.Reg = em.regOf(n, k)
		}
		for slot := 0; ; slot++ {
			if slot >= mcode.MemPorts {
				return fmt.Errorf("cellgen: modulo schedule overfills the memory ports")
			}
			if in.Mem[slot] == nil {
				in.Mem[slot] = op
				break
			}
		}
	case ir.OpWrite:
		src, err := em.operand(n.Args[0], k)
		if err != nil {
			return err
		}
		if in.Mov != nil {
			return fmt.Errorf("cellgen: modulo schedule double-books the move field")
		}
		in.Mov = &mcode.AluOp{Code: mcode.Mov, Dst: em.g.res.ScalarRegs[n.Sym], Src: [3]mcode.Reg{src}}
	default:
		code, ok := aluCodeOf[n.Op]
		if !ok {
			return fmt.Errorf("cellgen: cannot emit %s in modulo schedule", n.Op)
		}
		op := &mcode.AluOp{Code: code, Dst: em.regOf(n, k)}
		for i, a := range n.Args {
			src, err := em.operand(a, k)
			if err != nil {
				return err
			}
			op.Src[i] = src
		}
		if code.OnMulUnit() {
			if in.Mul != nil {
				return fmt.Errorf("cellgen: modulo schedule double-books the MUL unit")
			}
			in.Mul = op
		} else {
			if in.Add != nil {
				return fmt.Errorf("cellgen: modulo schedule double-books the ADD unit")
			}
			in.Add = op
		}
	}
	return nil
}
