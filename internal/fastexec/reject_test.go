package fastexec_test

import (
	"testing"

	"warp/internal/fastexec"
	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/w2"
)

// TestCompileRejections pins every build-time contract check of
// fastexec.Compile with its exact error text, one smallest hand-built
// program per check.  All but address-mismatch were written against the
// Compile that carried its own IU emulator and loop unroller; the checks
// and their wording are part of the package's contract (callers fall
// back to the simulator on any of them and surface the text).
func TestCompileRejections(t *testing.T) {
	sym := &w2.Symbol{Name: "buf", Kind: w2.SymCellArray}
	load := &mcode.Instr{Mem: [mcode.MemPorts]mcode.MemOp{{Kind: mcode.MemLoad, Reg: 1, Addr: mcode.AddrInfo{Sym: sym}}}}
	recv := func(dir w2.Direction) *mcode.Instr {
		return &mcode.Instr{IO: []mcode.IOOp{{Recv: true, Dir: dir, Chan: w2.ChanX, Reg: 1}}}
	}
	send := func(dir w2.Direction) *mcode.Instr {
		return &mcode.Instr{IO: []mcode.IOOp{{Dir: dir, Chan: w2.ChanY, Reg: 1}}}
	}
	cell := func(items ...mcode.CodeItem) *mcode.CellProgram { return &mcode.CellProgram{Items: items} }
	code := func(instrs ...*mcode.Instr) mcode.CodeItem { return &mcode.Straight{Instrs: instrs} }
	loop := func(id int, trips int64, body ...mcode.CodeItem) mcode.CodeItem {
		return &mcode.LoopItem{ID: id, Trips: trips, Body: body}
	}
	iu := func(items ...mcode.IUItem) *mcode.IUProgram { return &mcode.IUProgram{Items: items} }
	iuCode := func(instrs ...*mcode.IUInstr) mcode.IUItem { return &mcode.IUStraight{Instrs: instrs} }
	sig := func(id int, more bool) *mcode.IUInstr {
		return &mcode.IUInstr{Sig: &mcode.IUSig{LoopID: id, Static: true, Continue: more}}
	}
	host := func(in, out int) *hostgen.Program {
		return &hostgen.Program{
			In:  map[w2.Channel]hostgen.Stream{w2.ChanX: hostgen.Of(make([]hostgen.Word, in)...)},
			Out: map[w2.Channel]hostgen.Stream{w2.ChanY: hostgen.Of(make([]hostgen.Word, out)...)},
		}
	}
	huge := int64(1) << 23 // over the 1<<22-cycle trace cap

	// The smallest well-formed program of the same shapes: buf[4+i] is
	// loaded over two iterations, the IU reading both addresses from its
	// table.
	idx := &w2.ForStmt{Var: "i"}
	walk := &mcode.Instr{Mem: [mcode.MemPorts]mcode.MemOp{{Kind: mcode.MemLoad, Reg: 1,
		Addr: mcode.AddrInfo{Sym: sym, Base: 4, Affine: w2.AffVar(idx)}}}}
	wellFormed := func(table ...int64) fastexec.Program {
		return fastexec.Program{Cells: 2, Skew: 1, Lead: 2,
			Cell: cell(&mcode.LoopItem{ID: 3, Trips: 2, Src: idx, Step: 1,
				Body: []mcode.CodeItem{code(walk, recv(w2.DirL), send(w2.DirR))}}),
			IU: &mcode.IUProgram{Items: []mcode.IUItem{
				iuCode(&mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{FromTable: true}}}, sig(3, true)),
				iuCode(&mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{FromTable: true}}}, sig(3, false)),
			}, Table: table},
			Host: host(2, 2)}
	}

	cases := []struct {
		name string
		p    fastexec.Program
		want string
	}{
		{"no-cells",
			fastexec.Program{Cells: 0, Cell: cell(), IU: iu(), Host: host(0, 0)},
			"fastexec: need at least one cell"},
		{"incomplete",
			fastexec.Program{Cells: 1, Cell: cell(), IU: iu()},
			"fastexec: incomplete program (cell, IU and host programs are all required)"},
		{"cell-trace-cap",
			fastexec.Program{Cells: 1, Cell: cell(loop(3, huge, code(&mcode.Instr{}))), IU: iu(), Host: host(0, 0)},
			"fastexec: cell program unrolls to 8388608 cycles, over the 4194304-cycle trace cap"},
		{"iu-trace-cap",
			fastexec.Program{Cells: 1, Cell: cell(),
				IU:   iu(&mcode.IULoop{ID: 3, Trips: huge, Body: []mcode.IUItem{iuCode(&mcode.IUInstr{})}}),
				Host: host(0, 0)},
			"fastexec: IU program unrolls to 8388608 cycles, over the 4194304-cycle trace cap"},
		{"iu-table-over-read",
			fastexec.Program{Cells: 1, Cell: cell(code(load)),
				IU:   &mcode.IUProgram{Items: []mcode.IUItem{iuCode(&mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{FromTable: true}, {FromTable: true}}})}, Table: []int64{7}},
				Host: host(0, 0)},
			"fastexec: IU table read past its 1 entries"},
		{"address-stream-dry",
			fastexec.Program{Cells: 1, Cell: cell(code(&mcode.Instr{}, load)), IU: iu(), Host: host(0, 0)},
			"fastexec: the IU address stream ran dry at cycle 1, memory port 0"},
		{"address-out-of-range",
			fastexec.Program{Cells: 1, Cell: cell(code(load)),
				IU: iu(iuCode(
					&mcode.IUInstr{Imm: &mcode.IUImm{Dst: 2, Value: 5000}},
					&mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{Src: 2}}})),
				Host: host(0, 0)},
			"fastexec: address 5000 outside the 4096-word cell memory (IU generated a bad address for buf+0)"},
		{"address-mismatch", wellFormed(4, 6), // in range, but the second iteration loads buf[4+1]
			"fastexec: address mismatch at cycle 3, memory port 0: the IU sends 6 where buf+i names 5"},
		{"signal-stream-dry",
			fastexec.Program{Cells: 1, Cell: cell(loop(3, 2, code(&mcode.Instr{}))),
				IU: iu(iuCode(sig(3, true))), Host: host(0, 0)},
			"fastexec: the IU signal stream ran dry at loop L3"},
		{"signal-mismatch",
			fastexec.Program{Cells: 1, Cell: cell(loop(3, 2, code(&mcode.Instr{}))),
				IU: iu(iuCode(sig(3, true), sig(4, false))), Host: host(0, 0)},
			"fastexec: loop signal mismatch: sequencer at L3(more=false), IU sent L4(more=false)"},
		{"cell-trip-count",
			fastexec.Program{Cells: 1, Cell: cell(loop(3, 0, code(&mcode.Instr{}))), IU: iu(), Host: host(0, 0)},
			"fastexec: loop L3 has trip count 0"},
		{"iu-trip-count",
			fastexec.Program{Cells: 1, Cell: cell(),
				IU:   iu(&mcode.IULoop{ID: 3, Trips: -1, Body: []mcode.IUItem{iuCode(&mcode.IUInstr{})}}),
				Host: host(0, 0)},
			"fastexec: IU loop L3 has trip count -1"},
		{"empty-loop-body",
			fastexec.Program{Cells: 1, Cell: cell(loop(3, 2, code())), IU: iu(), Host: host(0, 0)},
			"fastexec: loop L3 has an empty body"},
		{"receive-from-right",
			fastexec.Program{Cells: 1, Cell: cell(code(recv(w2.DirR))), IU: iu(), Host: host(1, 0)},
			"fastexec: receive from the right is not supported (rightward flow only)"},
		{"send-to-left",
			fastexec.Program{Cells: 1, Cell: cell(code(send(w2.DirL))), IU: iu(), Host: host(0, 1)},
			"fastexec: send to the left is not supported (rightward flow only)"},
		{"host-input-short",
			fastexec.Program{Cells: 1, Cell: cell(code(recv(w2.DirL), recv(w2.DirL))), IU: iu(), Host: host(1, 0)},
			"fastexec: cell 0 receives 2 words on X but the host program supplies 1"},
		{"host-output-short",
			fastexec.Program{Cells: 1, Cell: cell(code(send(w2.DirR), send(w2.DirR))), IU: iu(), Host: host(0, 1)},
			"fastexec: the last cell sends 2 words on Y but the host program expects 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := fastexec.Compile(tc.p)
			if err == nil {
				t.Fatalf("compiled a %d-op plan; want error %q", plan.Ops(), tc.want)
			}
			if err.Error() != tc.want {
				t.Errorf("error text changed:\n  got  %q\n  want %q", err, tc.want)
			}
		})
	}

	// The well-formed program compiles: the table above rejects for the
	// stated reason, not for a malformed fixture.
	plan, err := fastexec.Compile(wellFormed(4, 5))
	if err != nil {
		t.Fatalf("well-formed fixture rejected: %v", err)
	}
	if plan.Ops() != 6 {
		t.Errorf("well-formed fixture: %d trace ops, want 6", plan.Ops())
	}
}
