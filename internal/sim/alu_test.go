package sim

import (
	"testing"

	"warp/internal/mcode"
)

// issueAlu issues one FPU field on a lone cell at cycle now: the field
// sits in the slot of its unit, as the code generators place it.
func issueAlu(c *cell, op *mcode.AluOp, now int64) error {
	in := &mcode.Instr{Add: op}
	switch {
	case op.Code.OnMulUnit():
		in = &mcode.Instr{Mul: op}
	case op.Code == mcode.Mov:
		in = &mcode.Instr{Mov: op}
	}
	return (&machine{now: now}).execCellInstr(c, in)
}

// TestAluAllCodes drives every FPU operation through a cell and checks
// value and latency: the result must sit alone in the latency-wheel slot
// of its landing cycle.
func TestAluAllCodes(t *testing.T) {
	cases := []struct {
		code mcode.AluCode
		a, b float64
		c    float64 // third operand for select
		want float64
	}{
		{mcode.Fadd, 2, 3, 0, 5},
		{mcode.Fsub, 2, 3, 0, -1},
		{mcode.Fneg, 2, 0, 0, -2},
		{mcode.Fmul, 2, 3, 0, 6},
		{mcode.Fdiv, 6, 3, 0, 2},
		{mcode.CmpEQ, 2, 2, 0, 1},
		{mcode.CmpEQ, 2, 3, 0, 0},
		{mcode.CmpNE, 2, 3, 0, 1},
		{mcode.CmpLT, 2, 3, 0, 1},
		{mcode.CmpLE, 3, 3, 0, 1},
		{mcode.CmpGT, 2, 3, 0, 0},
		{mcode.CmpGE, 3, 3, 0, 1},
		{mcode.BoolAnd, 1, 0, 0, 0},
		{mcode.BoolAnd, 1, 2, 0, 1},
		{mcode.BoolOr, 0, 0, 0, 0},
		{mcode.BoolOr, 0, 5, 0, 1},
		{mcode.BoolNot, 0, 0, 0, 1},
		{mcode.BoolNot, 7, 0, 0, 0},
		{mcode.Sel, 1, 10, 20, 10},
		{mcode.Sel, 0, 10, 20, 20},
		{mcode.Mov, 9, 0, 0, 9},
	}
	for _, tc := range cases {
		c := &cell{}
		c.regs[1], c.regs[2], c.regs[3] = tc.a, tc.b, tc.c
		if err := issueAlu(c, &mcode.AluOp{Code: tc.code, Dst: 5, Src: [3]mcode.Reg{1, 2, 3}}, 100); err != nil {
			t.Fatalf("%s: %v", tc.code, err)
		}
		pending := 0
		for _, slot := range c.wheel {
			pending += len(slot)
		}
		if pending != 1 {
			t.Fatalf("%s: %d pending writes", tc.code, pending)
		}
		land := 100 + tc.code.Latency()
		slot := c.wheel[land%wheelSlots]
		if len(slot) != 1 {
			t.Fatalf("%s does not land at %d", tc.code, land)
		}
		if w := slot[0]; w.reg != 5 || w.val != tc.want {
			t.Errorf("%s(%v,%v,%v) = %v -> %s, want %v -> r5", tc.code, tc.a, tc.b, tc.c, w.val, w.reg, tc.want)
		}
	}
}

// TestAluDivByZero is a machine fault.
func TestAluDivByZero(t *testing.T) {
	op := &mcode.AluOp{Code: mcode.Fdiv, Dst: 5, Src: [3]mcode.Reg{1, 2}}
	if err := issueAlu(&cell{}, op, 0); err == nil || err.Error() != "sim: floating divide by zero" {
		t.Errorf("divide by zero must fault, got %v", err)
	}
}

// TestIUAluSemantics drives the IU's adder through the machine step.
func TestIUAluSemantics(t *testing.T) {
	iu := &mcode.IUProgram{Items: []mcode.IUItem{
		&mcode.IUStraight{Instrs: []*mcode.IUInstr{
			{Imm: &mcode.IUImm{Dst: 0, Value: 10}},
			{Alu: &mcode.IUAlu{Dst: 1, A: 0, BIsImm: true, ImmVal: 5}},
			{Alu: &mcode.IUAlu{Dst: 2, A: 1, B: 0, Sub: true}},
			{Out: [mcode.MemPorts]*mcode.IUOut{{Src: 2}}},
		}},
	}}
	// One cell popping the address into a load.
	sym := dummySym()
	cellProg := &mcode.CellProgram{Items: []mcode.CodeItem{
		&mcode.Straight{Instrs: []*mcode.Instr{
			{}, {}, {},
			{Mem: [mcode.MemPorts]*mcode.MemOp{{Store: false, Reg: 1, Addr: mcode.AddrInfo{Sym: sym}}}},
		}},
	}}
	_, err := Run(Config{
		Cells: 1, Cell: cellProg, IU: iu,
		Host: emptyHost(), Lead: 1,
	})
	// Address = (10+5) − 10 = 5, inside memory: run must succeed.
	if err != nil {
		t.Fatalf("IU arithmetic produced a bad address: %v", err)
	}
}
