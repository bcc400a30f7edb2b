package mcode

import (
	"math"
	"testing"

	"warp/internal/w2"
)

// errOf drops a result, keeping its error.
func errOf[T any](_ T, err error) error { return err }

// TestRefusalTexts pins the refusals of the walkers over the loop nest
// byte for byte on constructed programs: Decode's and DecodeIU's empty
// loop bodies (the first in µPC order), ValidateCell's checks with the
// nested loop prefixes and the instruction's index in its block,
// ValidateIU's, and CountCell's and CountIU's overflows — which loop,
// and the cycle count against an event count.
func TestRefusalTexts(t *testing.T) {
	nops := func(n int) []*Instr {
		out := make([]*Instr, n)
		for i := range out {
			out[i] = &Instr{}
		}
		return out
	}
	block := func(in ...*Instr) *Straight { return &Straight{Instrs: in} }
	loop := func(id int, trips int64, body ...CodeItem) *LoopItem {
		return &LoopItem{ID: id, Trips: trips, Body: body}
	}
	cell := func(items ...CodeItem) *CellProgram { return &CellProgram{Items: items} }
	alu := func(f Fields) *Instr { return &Instr{Fields: f} }
	mem2 := &Instr{Mem: [MemPorts]MemOp{{Kind: MemLoad}, {Kind: MemStore}}}
	badAdd := alu(Fields{HasAdd: true, Add: AluOp{Code: Fadd, Dst: 200}})
	recvX := IOOp{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: 1}

	iuBlock := func(in ...*IUInstr) *IUStraight { return &IUStraight{Instrs: in} }
	iuLoop := func(id int, trips int64, body ...IUItem) *IULoop {
		return &IULoop{ID: id, Trips: trips, Body: body}
	}
	iu := func(items ...IUItem) *IUProgram { return &IUProgram{Items: items} }
	table2 := &IUInstr{Out: [MemPorts]*IUOut{{FromTable: true}, {FromTable: true}}}

	cases := []struct {
		name string
		err  error
		want string
	}{
		{"Decode: the first empty body", errOf(Decode(cell(block(nops(1)...), loop(3, 2), loop(4, 1)))),
			"loop L3 has an empty body"},
		{"Decode: the innermost empty body first", errOf(Decode(cell(loop(1, 2, block(nops(1)...), loop(2, 2, loop(5, 2)))))),
			"loop L5 has an empty body"},
		{"DecodeIU: the innermost empty body first", errOf(DecodeIU(iu(iuLoop(7, 2, iuLoop(8, 3)), iuLoop(9, 1)))),
			"loop L8 has an empty body"},

		{"ValidateCell: add destination", ValidateCell(cell(block(&Instr{}, badAdd))),
			"instruction 1: add: destination r200 out of range"},
		{"ValidateCell: add source", ValidateCell(cell(block(alu(Fields{HasAdd: true, Add: AluOp{Code: Fadd, Src: [3]Reg{1, 64}}})))),
			"instruction 0: add: source r64 out of range"},
		{"ValidateCell: add carries a MUL code", ValidateCell(cell(block(alu(Fields{HasAdd: true, Add: AluOp{Code: Fmul}})))),
			"instruction 0: add field carries fmul"},
		{"ValidateCell: add carries a move", ValidateCell(cell(block(alu(Fields{HasAdd: true, Add: AluOp{Code: Mov}})))),
			"instruction 0: add field carries mov"},
		{"ValidateCell: mul carries an ADD code", ValidateCell(cell(block(alu(Fields{HasMul: true, Mul: AluOp{Code: Fadd}})))),
			"instruction 0: mul field carries fadd"},
		{"ValidateCell: mov carries an ADD code", ValidateCell(cell(block(alu(Fields{HasMov: true, Mov: AluOp{Code: Fadd}})))),
			"instruction 0: mov field carries fadd"},
		{"ValidateCell: one queue port twice", ValidateCell(cell(block(&Instr{IO: []IOOp{recvX, recvX}}))),
			"instruction 0: two operations on one queue port in a cycle"},
		{"ValidateCell: queue register", ValidateCell(cell(block(&Instr{IO: []IOOp{{Recv: true, Chan: w2.ChanY, Reg: -1}}}))),
			"instruction 0: queue operation register r-1 out of range"},
		{"ValidateCell: memory register", ValidateCell(cell(block(&Instr{Mem: [MemPorts]MemOp{{}, {Kind: MemStore, Reg: 64}}}))),
			"instruction 0: memory operation register r64 out of range"},
		{"ValidateCell: literal register", ValidateCell(cell(block(alu(Fields{HasLit: true, Lit: LitOp{Dst: 70}})))),
			"instruction 0: literal destination r70 out of range"},
		{"ValidateCell: the index counts from its block", ValidateCell(cell(block(nops(3)...), block(&Instr{}, badAdd))),
			"instruction 1: add: destination r200 out of range"},
		{"ValidateCell: trips", ValidateCell(cell(loop(0, 0, block(nops(1)...)))),
			"loop L0: 0 trips"},
		{"ValidateCell: empty body", ValidateCell(cell(block(nops(1)...), loop(2, 3))),
			"loop L2: empty body"},
		{"ValidateCell: nested prefixes", ValidateCell(cell(loop(1, 2, block(nops(1)...), loop(2, 2, block(&Instr{}, &Instr{}, badAdd))))),
			"loop L1: loop L2: instruction 2: add: destination r200 out of range"},
		{"ValidateCell: a body of an empty loop is empty", ValidateCell(cell(loop(1, 2, loop(2, 2)))),
			"loop L1: empty body"},
		{"ValidateCell: trips before the body", ValidateCell(cell(loop(1, 0, block(badAdd)))),
			"loop L1: 0 trips"},
		{"ValidateCell: a zero-trip loop's body is not empty", ValidateCell(cell(loop(1, 2, loop(2, 0, block(nops(1)...))))),
			"loop L1: loop L2: 0 trips"},
		{"ValidateCell: the first refusal in µPC order", ValidateCell(cell(block(badAdd), loop(0, 0, block(nops(1)...)))),
			"instruction 0: add: destination r200 out of range"},
		{"ValidateCell: counts first", ValidateCell(cell(block(badAdd), loop(2, math.MaxInt64, block(nops(2)...)))),
			"loop L2: the cycle count overflows 64 bits"},

		{"CountCell: cycles in a loop", errOf(CountCell(cell(loop(2, math.MaxInt64, block(nops(2)...))))),
			"loop L2: the cycle count overflows 64 bits"},
		{"CountCell: events in a loop", errOf(CountCell(cell(loop(0, 1<<62, block(mem2))))),
			"loop L0: an event count overflows 64 bits"},
		{"CountCell: the product names the outer loop", errOf(CountCell(cell(loop(1, 1<<32, loop(2, 1<<32, block(nops(1)...)))))),
			"loop L1: the cycle count overflows 64 bits"},
		{"CountCell: the sum inside a loop names it", errOf(CountCell(cell(loop(1, 1, loop(2, math.MaxInt64, block(nops(1)...)), block(nops(1)...))))),
			"loop L1: the cycle count overflows 64 bits"},
		{"CountCell: cycles at the top level", errOf(CountCell(cell(loop(0, math.MaxInt64, block(nops(1)...)), block(nops(1)...)))),
			"the cycle count overflows 64 bits"},
		{"CountCell: events at the top level", errOf(CountCell(cell(loop(0, math.MaxInt64/2, block(mem2)), block(mem2)))),
			"an event count overflows 64 bits"},
		{"CountCell: a block adds its cycles first", errOf(CountCell(cell(loop(0, 1<<62-2, block(nops(1)...)), loop(1, 1<<62-1, block(mem2)), block(mem2, &Instr{}, &Instr{})))),
			"the cycle count overflows 64 bits"},

		{"CountIU: cycles in a loop", errOf(CountIU(iu(iuLoop(3, math.MaxInt64, iuBlock(&IUInstr{}, &IUInstr{}))))),
			"loop L3: the cycle count overflows 64 bits"},
		{"CountIU: events in a loop", errOf(CountIU(iu(iuLoop(3, 1<<62, iuBlock(table2))))),
			"loop L3: an event count overflows 64 bits"},
		{"CountIU: cycles at the top level", errOf(CountIU(iu(iuLoop(3, math.MaxInt64, iuBlock(&IUInstr{})), iuBlock(&IUInstr{})))),
			"the cycle count overflows 64 bits"},

		{"ValidateIU: adder register", ValidateIU(iu(iuBlock(&IUInstr{Alu: &IUAlu{Dst: 16, BIsImm: true, ImmVal: 1}}))),
			"IU adder register out of range: a16 <- a0 + #1"},
		{"ValidateIU: adder and counter work", ValidateIU(iu(iuBlock(&IUInstr{Alu: &IUAlu{Dst: 1, A: 1, B: 2}, CtrWork: true}))),
			"adder field and counter work collide"},
		{"ValidateIU: immediate register", ValidateIU(iu(iuBlock(&IUInstr{Imm: &IUImm{Dst: -1}}))),
			"IU immediate register out of range"},
		{"ValidateIU: output register", ValidateIU(iu(iuBlock(&IUInstr{Out: [MemPorts]*IUOut{nil, {Src: 16}}}))),
			"IU address output register out of range"},
		{"ValidateIU: trips, with no loop prefix", ValidateIU(iu(iuLoop(1, 2, iuBlock(&IUInstr{}), iuLoop(4, 0, iuBlock(&IUInstr{}))))),
			"IU loop L4: 0 trips"},
		{"ValidateIU: trips before the body", ValidateIU(iu(iuLoop(4, -1, iuBlock(&IUInstr{Imm: &IUImm{Dst: 16}})))),
			"IU loop L4: -1 trips"},
		{"ValidateIU: counts first", ValidateIU(iu(iuBlock(&IUInstr{Imm: &IUImm{Dst: 16}}), iuLoop(3, math.MaxInt64, iuBlock(&IUInstr{}, &IUInstr{})))),
			"loop L3: the cycle count overflows 64 bits"},
	}
	for _, tc := range cases {
		got := "<nil>"
		if tc.err != nil {
			got = tc.err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}
}
