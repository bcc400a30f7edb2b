// Package mcodetest holds hand-built machine programs that the tests of
// both executors run: the simulator and the fast plan must agree on them
// word for word, so they are written once.
package mcodetest

import (
	"fmt"
	"math"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/w2"
)

// Landing is a straight-line program on one cell whose words meet at a
// corner of the landing order.  Host words 0..len(Inputs[l])-1 stream
// into channel X; the program sends Want(inputs) back on X, into the
// host words after them, or fails with Fault.  Memory fields take their
// addresses from the IU, one a cycle, the IU starting Lead cycles ahead.
type Landing struct {
	Name   string
	Cell   *mcode.CellProgram
	IU     *mcode.IUProgram
	Host   *hostgen.Program
	Lead   int64
	Inputs [][]float64 // three problems' inputs
	Want   func(in []float64) []float64
	Fault  string // the machine fault, without its executor's prefix
}

// Image returns problem l's host memory: its inputs, then room for what
// the program sends.
func (c *Landing) Image(l int) []float64 {
	return append(append([]float64(nil), c.Inputs[l]...), make([]float64, c.sent())...)
}

// sent is how many words the program sends.
func (c *Landing) sent() int {
	if c.Want == nil {
		return 0
	}
	return len(c.Want(c.Inputs[0]))
}

// Check reports how a run that left img and err departs from the case;
// fault is the whole error text the executor must report Fault with.
func (c *Landing) Check(img []float64, err error, fault string) error {
	if c.Fault != "" {
		if err == nil || err.Error() != fault {
			return fmt.Errorf("error %v, want %q", err, fault)
		}
		return nil
	}
	if err != nil {
		return err
	}
	n := len(c.Inputs[0])
	for k, want := range c.Want(img[:n]) {
		if got := img[n+k]; math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("sent word %d = %v, want %v", k, got, want)
		}
	}
	return nil
}

// LandingCases are the corners of a word's landing order: the register
// and memory writes that meet at the end of one cycle, and every code
// only mcode.AluOp.Eval computes.
func LandingCases() []*Landing {
	buf := &w2.Symbol{Name: "buf", Kind: w2.SymCellArray}
	recv := func(r mcode.Reg) *mcode.Instr {
		return &mcode.Instr{IO: []mcode.IOOp{{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: r}}}
	}
	send := func(r mcode.Reg) *mcode.Instr {
		return &mcode.Instr{IO: []mcode.IOOp{{Dir: w2.DirR, Chan: w2.ChanX, Reg: r}}}
	}
	alu := func(code mcode.AluCode, dst mcode.Reg, src ...mcode.Reg) *mcode.Instr {
		op := mcode.AluOp{Code: code, Dst: dst}
		copy(op.Src[:], src)
		switch {
		case code == mcode.Mov:
			return &mcode.Instr{Fields: mcode.Fields{HasMov: true, Mov: op}}
		case code.OnMulUnit():
			return &mcode.Instr{Fields: mcode.Fields{HasMul: true, Mul: op}}
		}
		return &mcode.Instr{Fields: mcode.Fields{HasAdd: true, Add: op}}
	}
	memOp := func(kind uint8, r mcode.Reg, addr int64) mcode.MemOp {
		return mcode.MemOp{Kind: kind, Reg: r, Addr: mcode.AddrInfo{Sym: buf, Affine: w2.Affine{Const: addr}}}
	}
	idle := func(instrs []*mcode.Instr, n int) []*mcode.Instr {
		for range n {
			instrs = append(instrs, &mcode.Instr{})
		}
		return instrs
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}

	// r5: an FPU result, a receive and a move, so it holds the move's
	// value; r6: an FPU result and a receive, so it holds the received
	// word.
	meet := []*mcode.Instr{recv(1), recv(2), alu(mcode.Fadd, 5, 1, 2), alu(mcode.Fadd, 6, 1, 2)}
	meet = idle(meet, mcode.FPULatency-3) // the first sum lands at the end of the next word
	both := recv(5)
	both.Fields = alu(mcode.Mov, 5, 1).Fields
	meet = append(meet, both, recv(6), send(5), send(6))

	// A load and a store of one address in one word: the load reads the
	// word as it stood, the next word's load what was stored.
	swap := &mcode.Instr{Mem: [mcode.MemPorts]mcode.MemOp{memOp(mcode.MemLoad, 3, 7), memOp(mcode.MemStore, 2, 7)}}
	store := &mcode.Instr{Mem: [mcode.MemPorts]mcode.MemOp{memOp(mcode.MemStore, 1, 7)}}
	load := &mcode.Instr{Mem: [mcode.MemPorts]mcode.MemOp{memOp(mcode.MemLoad, 4, 7)}}
	loadStore := []*mcode.Instr{recv(1), store, recv(2), swap, load, send(3), send(4)}

	// A receive and the literal into one register: the literal wins.
	lit := recv(1)
	lit.HasLit, lit.Lit = true, mcode.LitOp{Dst: 1, Value: 7.5}

	// A move and an FPU result land on r3 at the end of one cycle: the
	// move, issued later, wins.
	movFPU := idle([]*mcode.Instr{recv(1), recv(2), alu(mcode.Fmul, 3, 1, 2)}, mcode.FPULatency-2)
	movFPU = append(movFPU, alu(mcode.Mov, 3, 2), send(3))

	// One word for each code only Eval computes, each reading r1, r2, r3.
	evals := []struct {
		code mcode.AluCode
		f    func(a, b, c float64) float64
	}{
		{mcode.Fneg, func(a, b, c float64) float64 { return -a }},
		{mcode.Fdiv, func(a, b, c float64) float64 { return a / b }},
		{mcode.CmpEQ, func(a, b, c float64) float64 { return b2f(a == b) }},
		{mcode.CmpNE, func(a, b, c float64) float64 { return b2f(a != b) }},
		{mcode.CmpLT, func(a, b, c float64) float64 { return b2f(a < b) }},
		{mcode.CmpLE, func(a, b, c float64) float64 { return b2f(a <= b) }},
		{mcode.CmpGT, func(a, b, c float64) float64 { return b2f(a > b) }},
		{mcode.CmpGE, func(a, b, c float64) float64 { return b2f(a >= b) }},
		{mcode.BoolAnd, func(a, b, c float64) float64 { return b2f(a != 0 && b != 0) }},
		{mcode.BoolOr, func(a, b, c float64) float64 { return b2f(a != 0 || b != 0) }},
		{mcode.BoolNot, func(a, b, c float64) float64 { return b2f(a == 0) }},
		{mcode.Sel, func(a, b, c float64) float64 {
			if a != 0 {
				return b
			}
			return c
		}},
	}
	eval := []*mcode.Instr{recv(1), recv(2), recv(3)}
	for k, e := range evals {
		eval = append(eval, alu(e.code, mcode.Reg(10+k), 1, 2, 3))
	}
	eval = idle(eval, mcode.FPULatency)
	for k := range evals {
		eval = append(eval, send(mcode.Reg(10+k)))
	}

	cases := []*Landing{
		{Name: "fpu-receive-move-meet", Cell: straight(meet),
			Inputs: [][]float64{{1, 2, 10, 20}, {3, 4, 30, 40}, {5, 6, 50, 60}},
			Want:   func(in []float64) []float64 { return []float64{in[0], in[3]} }},
		{Name: "load-and-store-one-address", Cell: straight(loadStore),
			Inputs: [][]float64{{1, 2}, {3, 4}, {5, 6}},
			Want:   func(in []float64) []float64 { return []float64{in[0], in[1]} }},
		{Name: "literal-over-receive", Cell: straight([]*mcode.Instr{lit, send(1)}),
			Inputs: [][]float64{{1}, {2}, {3}},
			Want:   func([]float64) []float64 { return []float64{7.5} }},
		{Name: "move-and-fpu-meet", Cell: straight(movFPU),
			Inputs: [][]float64{{2, 3}, {4, 5}, {6, 7}},
			Want:   func(in []float64) []float64 { return []float64{in[1]} }},
		{Name: "eval-codes", Cell: straight(eval),
			Inputs: [][]float64{{1, 2, 20}, {2, 2, 30}, {0, -1, 40}},
			Want: func(in []float64) []float64 {
				out := make([]float64, len(evals))
				for k, e := range evals {
					out[k] = e.f(in[0], in[1], in[2])
				}
				return out
			}},
		{Name: "divide-by-zero", Cell: straight([]*mcode.Instr{recv(1), recv(2), alu(mcode.Fdiv, 3, 1, 2)}),
			Inputs: [][]float64{{1, 0}, {2, 0}, {3, 0}},
			Fault:  "floating divide by zero"},
	}
	for _, c := range cases {
		c.IU, c.Lead = addressesFromTable(c.Cell)
		c.Host = hostX(len(c.Inputs[0]), c.sent())
	}
	return cases
}

func straight(instrs []*mcode.Instr) *mcode.CellProgram {
	return &mcode.CellProgram{Items: []mcode.CodeItem{&mcode.Straight{Instrs: instrs}}}
}

// addressesFromTable returns an IU program that sends the addresses a
// straight-line cell program's memory fields name, one a cycle from its
// table, and the lead that keeps it ahead of the cell.
func addressesFromTable(cell *mcode.CellProgram) (*mcode.IUProgram, int64) {
	iu := &mcode.IUProgram{}
	var out []*mcode.IUInstr
	mcode.WalkInstrs(cell.Items, func(in *mcode.Instr, _ []*mcode.LoopItem) {
		for port := range in.Mem {
			if m := &in.Mem[port]; m.Kind != mcode.MemNone {
				iu.Table = append(iu.Table, int64(m.Addr.Base)+m.Addr.Affine.Const)
				out = append(out, &mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{FromTable: true}}})
			}
		}
	})
	if len(out) > 0 {
		iu.Items = []mcode.IUItem{&mcode.IUStraight{Instrs: out}}
	}
	return iu, int64(len(out)) + 1
}

// hostX streams host words 0..in-1 into channel X and stores the sent
// words after them.
func hostX(in, sent int) *hostgen.Program {
	h := &hostgen.Program{In: map[w2.Channel]hostgen.Stream{}, Out: map[w2.Channel]hostgen.Stream{}}
	words := make([]hostgen.Word, in+sent)
	for x := range words {
		words[x].Index = int32(x)
	}
	h.In[w2.ChanX] = hostgen.Of(words[:in]...)
	if sent > 0 {
		h.Out[w2.ChanX] = hostgen.Of(words[in:]...)
	}
	return h
}
