package sim

import (
	"testing"

	"warp/internal/mcode"
)

// issueAlu issues one FPU field on a lone cell at cycle now through the
// word executor: the field sits in the slot of its unit, as the code
// generators place it, and the instruction is decoded as every run's
// is.
func issueAlu(c *cell, op *mcode.AluOp, now int64) error {
	in := &mcode.Instr{Fields: mcode.Fields{HasAdd: true, Add: *op}}
	switch {
	case op.Code.OnMulUnit():
		in.Fields = mcode.Fields{HasMul: true, Mul: *op}
	case op.Code == mcode.Mov:
		in.Fields = mcode.Fields{HasMov: true, Mov: *op}
	}
	code, err := mcode.Decode(&mcode.CellProgram{Items: []mcode.CodeItem{&mcode.Straight{Instrs: []*mcode.Instr{in}}}})
	if err != nil {
		return err
	}
	g := &group{machine: &machine{code: *code}, now: now}
	return g.issue(c, &g.code.Words[0])
}

// TestAluAllCodes drives every FPU operation through a cell and checks
// value and latency: the result must be visible from its landing cycle
// on and not before.
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
		r := &c.regs
		r.R[1], r.R[2], r.R[3], r.R[5] = tc.a, tc.b, tc.c, -7
		if err := issueAlu(c, &mcode.AluOp{Code: tc.code, Dst: 5, Src: [3]mcode.Reg{1, 2, 3}}, 100); err != nil {
			t.Fatalf("%s: %v", tc.code, err)
		}
		// A one-cycle result lands at the end of its issuing cycle.
		land := 100 + tc.code.Latency()
		r.Land(land - 1)
		if early := r.R[5] != -7; early != (land == 101) {
			t.Fatalf("%s does not land at %d (r5 = %v at %d)", tc.code, land, r.R[5], land-1)
		}
		r.Land(land)
		if r.R[5] != tc.want {
			t.Errorf("%s(%v,%v,%v) = %v -> r5, want %v", tc.code, tc.a, tc.b, tc.c, r.R[5], tc.want)
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
			{Mem: [mcode.MemPorts]mcode.MemOp{{Kind: mcode.MemLoad, Reg: 1, Addr: mcode.AddrInfo{Sym: sym}}}},
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
