package verify

import (
	"fmt"
	"strings"
	"testing"

	"warp/internal/mcode"
	"warp/internal/w2"
)

// TestIUStreamDiagnostics pins the full diagnostic list (invariant,
// location, text) of every IU-side rejection on hand-built programs.
// The expectations were recorded from the verifier that emulated the IU
// itself, and kept through the one that elaborated it with
// internal/mcode; the structural proofs must lead to the same words at
// the same µPCs and cycles.  The last three cases are past the cycle cap
// those verifiers had.
func TestIUStreamDiagnostics(t *testing.T) {
	load := func() *mcode.Instr {
		in := &mcode.Instr{}
		in.Mem[0] = mcode.MemOp{Kind: mcode.MemLoad, Reg: 1}
		return in
	}
	out := func(o *mcode.IUOut) *mcode.IUInstr {
		in := &mcode.IUInstr{}
		in.Out[0] = o
		return in
	}
	iuCode := func(instrs ...*mcode.IUInstr) mcode.IUItem { return &mcode.IUStraight{Instrs: instrs} }
	sig := func(id int, more bool) *mcode.IUInstr {
		return &mcode.IUInstr{Sig: &mcode.IUSig{LoopID: id, Static: true, Continue: more}}
	}
	nops := func(n int) []*mcode.Instr {
		s := make([]*mcode.Instr, n)
		for i := range s {
			s[i] = &mcode.Instr{}
		}
		return s
	}

	cases := []struct {
		name  string
		build func() Program
		want  []string // nil: accepted
	}{
		{"table-over-read", func() Program {
			// Three table reads against a two-entry table; the first
			// over-read is the third, on IU instruction 2 at cycle 2.
			p := program(0, 0, straight(append(nops(3), load(), load(), load())...))
			p.IU.Table = []int64{4, 5}
			tbl := &mcode.IUOut{FromTable: true}
			p.IU.Items = []mcode.IUItem{iuCode(out(tbl), out(tbl), out(tbl))}
			return p
		}, []string{
			`addr-stream cell=-1 instr=2 loop=-1 "IU reads past the end of its 2-entry address table at cycle 2"`,
		}},
		{"late-address", func() Program {
			// The load pops at cell cycle 0 = IU cycle 1 (lead 1); the
			// address leaves the IU at cycle 2.
			p := program(0, 0, straight(load()))
			p.IU.Items = []mcode.IUItem{iuCode(&mcode.IUInstr{}, &mcode.IUInstr{}, out(&mcode.IUOut{Src: 0}))}
			return p
		}, []string{
			`addr-stream cell=0 instr=0 loop=-1 "memory reference 0 pops the Adr queue at cycle 1 but the IU emits the address only at cycle 2"`,
		}},
		{"late-signal", func() Program {
			p := program(0, 0, &mcode.LoopItem{ID: 3, Trips: 1, Body: []mcode.CodeItem{straight(&mcode.Instr{})}})
			p.IU.Items = []mcode.IUItem{iuCode(&mcode.IUInstr{}, &mcode.IUInstr{}, sig(3, false))}
			return p
		}, []string{
			`sig-stream cell=0 instr=2 loop=3 "signal 0 arrives at IU cycle 2, after cell 0 needs it at cycle 1"`,
		}},
		{"same-register-tie", func() Program {
			// a1 <- #9 and a1 <- a0 + #5000 issue together: the adder's
			// result lands last, so the address emitted next cycle is 5000.
			p := program(0, 0, straight(append(nops(2), load())...))
			p.IU.Items = []mcode.IUItem{iuCode(
				&mcode.IUInstr{Imm: &mcode.IUImm{Dst: 1, Value: 9}, Alu: &mcode.IUAlu{Dst: 1, A: 0, BIsImm: true, ImmVal: 5000}},
				out(&mcode.IUOut{Src: 1}))}
			return p
		}, []string{
			`addr-stream cell=-1 instr=1 loop=-1 "IU emits address 5000 at cycle 1, outside the 4096-word cell memory"`,
		}},
		{"write-lands-next-cycle", func() Program {
			// The output in the same instruction as the write still reads
			// the old register (0); one cycle later it reads 5000.
			p := program(0, 0, straight(append(nops(2), load(), load())...))
			first := out(&mcode.IUOut{Src: 1})
			first.Imm = &mcode.IUImm{Dst: 1, Value: 5000}
			p.IU.Items = []mcode.IUItem{iuCode(first, out(&mcode.IUOut{Src: 1}))}
			return p
		}, []string{
			`addr-stream cell=-1 instr=1 loop=-1 "IU emits address 5000 at cycle 1, outside the 4096-word cell memory"`,
		}},
		{"dynamic-signals", func() Program {
			// A 6-trip cell loop driven by a 3-trip IU loop unrolled twice:
			// copies 0 and 1 of cell iteration iter·2+copy.
			p := program(0, 0, &mcode.LoopItem{ID: 3, Trips: 6, Body: []mcode.CodeItem{straight(&mcode.Instr{})}})
			dyn := func(copy int64) *mcode.IUInstr {
				return &mcode.IUInstr{Sig: &mcode.IUSig{LoopID: 3, Copy: copy, M: 2, CellTrips: 6}}
			}
			p.IU.Items = []mcode.IUItem{&mcode.IULoop{ID: 3, Trips: 3, Body: []mcode.IUItem{iuCode(dyn(0), dyn(1))}}}
			return p
		}, nil},
		{"neither-translation-nor-reset", func() Program {
			// a1 doubles every iteration: no affine form in the counter
			// holds it, so the address range is left unproven.
			p := program(0, 0, straight(&mcode.Instr{}))
			double := &mcode.IUInstr{Alu: &mcode.IUAlu{Dst: 1, A: 1, B: 1}}
			p.IU.Items = []mcode.IUItem{&mcode.IULoop{ID: 3, Trips: 2, Body: []mcode.IUItem{iuCode(double)}}}
			return p
		}, []string{
			`unproven cell=-1 instr=-1 loop=3 "IU loop L3 neither translates nor resets a1; address range unproven"`,
		}},
		{"iu-over-cycle-limit", func() Program {
			// The IU over-reads its table, then idles for 2²⁴ cycles: there
			// is no cycle cap, so the over-read is the only finding.
			p := program(0, 0, straight(load()))
			p.IU.Items = []mcode.IUItem{
				iuCode(out(&mcode.IUOut{FromTable: true})),
				&mcode.IULoop{ID: 3, Trips: 1 << 24, Body: []mcode.IUItem{iuCode(&mcode.IUInstr{})}},
			}
			return p
		}, []string{
			`addr-stream cell=-1 instr=0 loop=-1 "IU reads past the end of its 0-entry address table at cycle 0"`,
		}},
		{"cell-over-cycle-limit", func() Program {
			// A (2²⁴+1)-trip cell loop and the IU loop that signals it.
			const trips = 1<<24 + 1
			p := program(0, 0, &mcode.LoopItem{ID: 3, Trips: trips, Body: []mcode.CodeItem{straight(&mcode.Instr{})}})
			p.Cells = 1
			dyn := &mcode.IUInstr{Sig: &mcode.IUSig{LoopID: 3, M: 1, CellTrips: trips}}
			p.IU.Items = []mcode.IUItem{&mcode.IULoop{ID: 3, Trips: trips, Body: []mcode.IUItem{iuCode(dyn)}}}
			return p
		}, nil},
		{"nest-of-2^40", func() Program {
			// 2²⁸ rows of 2¹² loads of word j: the IU steps its address
			// register per load and resets it per row, so every address is
			// in range and the one the load names.
			const rows, cols = 1 << 28, 1 << 12
			j := &w2.ForStmt{Var: "j"}
			col := load()
			col.Mem[0].Addr.Affine = w2.AffVar(j)
			p := program(0, 0, &mcode.LoopItem{ID: 1, Trips: rows, Body: []mcode.CodeItem{
				&mcode.LoopItem{ID: 2, Trips: cols, Src: j, Step: 1, Body: []mcode.CodeItem{straight(col, &mcode.Instr{}, &mcode.Instr{})}},
				straight(&mcode.Instr{}),
			}})
			step := out(&mcode.IUOut{Src: 0})
			step.Alu = &mcode.IUAlu{Dst: 0, A: 0, BIsImm: true, ImmVal: 1}
			rowEnd := &mcode.IUInstr{Imm: &mcode.IUImm{Dst: 0}, Sig: &mcode.IUSig{LoopID: 1, M: 1, CellTrips: rows}}
			p.IU.Items = []mcode.IUItem{&mcode.IULoop{ID: 0, Trips: rows, Body: []mcode.IUItem{
				&mcode.IULoop{ID: 1, Trips: cols, Body: []mcode.IUItem{iuCode(step, &mcode.IUInstr{},
					&mcode.IUInstr{Sig: &mcode.IUSig{LoopID: 2, M: 1, CellTrips: cols}})}},
				iuCode(rowEnd),
			}}}
			return p
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			if _, err := Verify(tc.build()); err != nil {
				for _, d := range err.(*Error).Diags {
					got = append(got, fmt.Sprintf("%s cell=%d instr=%d loop=%d %q", d.Invariant, d.Cell, d.Instr, d.Loop, d.Detail))
				}
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("diagnostics changed:\n  got:\n\t%s\n  want:\n\t%s", strings.Join(got, "\n\t"), strings.Join(tc.want, "\n\t"))
			}
		})
	}
}

// TestPlanChecksInVerifier pins, with their diagnostics, the checks the
// fast executor's plan build made at run time against the elaborated IU
// until the verifier proved them: the table read past its end, an
// address stream or a signal stream that runs dry, an address outside
// the cell memory, an address other than the one its memory field names
// or outside the words the fields are bound to, a field whose address
// binds to no enclosing loop, a signal other than the
// sequencer's decision, and an IU loop of fewer than one trip.  Each is
// the plan build's own smallest program, made otherwise valid; a program
// as long as the build's 2²²-cycle caps refused is accepted
// (cell-over-cycle-limit above).
func TestPlanChecksInVerifier(t *testing.T) {
	buf := &w2.Symbol{Name: "buf", Kind: w2.SymCellArray}
	load := func(a mcode.AddrInfo) *mcode.Instr {
		in := &mcode.Instr{}
		in.Mem[0] = mcode.MemOp{Kind: mcode.MemLoad, Reg: 1, Addr: a}
		return in
	}
	iuCode := func(instrs ...*mcode.IUInstr) mcode.IUItem { return &mcode.IUStraight{Instrs: instrs} }
	table := func() *mcode.IUInstr {
		return &mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{FromTable: true}}}
	}
	sig := func(id int, more bool) *mcode.IUInstr {
		return &mcode.IUInstr{Sig: &mcode.IUSig{LoopID: id, Static: true, Continue: more}}
	}
	i := &w2.ForStmt{Var: "i"}
	// buf[4+i] loaded over two iterations, both addresses from the table.
	walk := func(tbl ...int64) Program {
		p := program(0, 0, &mcode.LoopItem{ID: 3, Trips: 2, Src: i, Step: 1, Body: []mcode.CodeItem{
			straight(load(mcode.AddrInfo{Sym: buf, Base: 4, Affine: w2.AffVar(i)}), &mcode.Instr{}, &mcode.Instr{})}})
		p.IU.Items = []mcode.IUItem{iuCode(table(), &mcode.IUInstr{}, sig(3, true), table(), &mcode.IUInstr{}, sig(3, false))}
		p.IU.Table = tbl
		return p
	}
	cases := []struct {
		name  string
		build func() Program
		want  []string
	}{
		{"iu-table-over-read", func() Program {
			p := program(0, 0, straight(load(mcode.AddrInfo{Sym: buf})))
			out := &mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{FromTable: true}, {FromTable: true}}}
			p.IU = &mcode.IUProgram{Items: []mcode.IUItem{iuCode(out)}, Table: []int64{7}}
			return p
		}, []string{
			`addr-stream cell=-1 instr=0 loop=-1 "IU reads past the end of its 1-entry address table at cycle 0"`,
			`addr-stream cell=-1 instr=-1 loop=-1 "IU emits 2 addresses but each cell makes 1 memory references"`,
		}},
		{"address-stream-dry", func() Program {
			return program(0, 0, straight(&mcode.Instr{}, load(mcode.AddrInfo{Sym: buf})))
		}, []string{
			`addr-stream cell=-1 instr=-1 loop=-1 "IU emits 0 addresses but each cell makes 1 memory references"`,
		}},
		{"address-out-of-range", func() Program {
			p := program(0, 0, straight(&mcode.Instr{}, load(mcode.AddrInfo{Sym: buf})))
			p.IU.Items = []mcode.IUItem{iuCode(&mcode.IUInstr{Imm: &mcode.IUImm{Dst: 2, Value: 5000}},
				&mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{Src: 2}}})}
			return p
		}, []string{
			`addr-stream cell=-1 instr=1 loop=-1 "IU emits address 5000 at cycle 1, outside the 4096-word cell memory"`,
		}},
		{"address-mismatch", func() Program { return walk(4, 6) }, []string{
			`addr-value cell=-1 instr=3 loop=-1 "address 1: the IU sends 6 at cycle 3 where cell instruction 0 port 0 (buf+i) names 5"`,
		}},
		{"address-outside-envelope", func() Program {
			// buf[2⁶⁰+100 − i] at i = 2⁶⁰ is word 100, and so is the
			// fields' envelope, bound exactly: bound in floating point it
			// rounded to the one word 0, and the IU's 100 fell outside it.
			big := &w2.ForStmt{Var: "i"}
			aff := w2.AffVar(big)
			aff.Terms[0].Coef = -1
			aff.Const = 1<<60 + 100
			p := program(0, 0, &mcode.LoopItem{ID: 3, Trips: 1, Src: big, First: 1 << 60, Step: 1, Body: []mcode.CodeItem{
				straight(&mcode.Instr{}, load(mcode.AddrInfo{Sym: buf, Affine: aff}))}})
			p.IU.Items = []mcode.IUItem{iuCode(&mcode.IUInstr{Imm: &mcode.IUImm{Dst: 2, Value: 100}},
				&mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{Src: 2}}}, sig(3, false))}
			return p
		}, nil},
		{"unbound-field", func() Program {
			// buf[j] outside any loop over j: the field's address binds to
			// nothing, whatever the IU sends.
			p := program(0, 0, straight(&mcode.Instr{}, load(mcode.AddrInfo{Sym: buf, Affine: w2.AffVar(&w2.ForStmt{Var: "j"})})))
			p.IU.Items = []mcode.IUItem{iuCode(&mcode.IUInstr{}, &mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{Src: 0}}})}
			return p
		}, []string{
			`addr-value cell=-1 instr=-1 loop=-1 "a memory field's address buf+j references loop j outside its scope"`,
		}},
		{"signal-stream-dry", func() Program {
			p := program(0, 0, &mcode.LoopItem{ID: 3, Trips: 2, Body: []mcode.CodeItem{straight(&mcode.Instr{})}})
			p.IU.Items = []mcode.IUItem{iuCode(sig(3, true))}
			return p
		}, []string{
			`sig-stream cell=-1 instr=-1 loop=-1 "IU emits 1 loop signals but each cell crosses 2 loop boundaries"`,
		}},
		{"signal-mismatch", func() Program {
			p := program(0, 0, &mcode.LoopItem{ID: 3, Trips: 2, Body: []mcode.CodeItem{straight(&mcode.Instr{})}})
			p.IU.Items = []mcode.IUItem{iuCode(sig(3, true), sig(4, false))}
			return p
		}, []string{
			`sig-stream cell=-1 instr=1 loop=3 "signal 1: IU sends L4(more=false) but the sequencer crosses L3(more=false)"`,
		}},
		{"iu-trip-count", func() Program {
			p := program(0, 0, straight(&mcode.Instr{}))
			p.IU.Items = []mcode.IUItem{&mcode.IULoop{ID: 3, Trips: -1, Body: []mcode.IUItem{iuCode(&mcode.IUInstr{})}}}
			return p
		}, []string{
			`structure cell=-1 instr=-1 loop=-1 "IU program: IU loop L3: -1 trips"`,
		}},
		{"well-formed", func() Program { return walk(4, 5) }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			if _, err := Verify(tc.build()); err != nil {
				for _, d := range err.(*Error).Diags {
					got = append(got, fmt.Sprintf("%s cell=%d instr=%d loop=%d %q", d.Invariant, d.Cell, d.Instr, d.Loop, d.Detail))
				}
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("diagnostics changed:\n  got:\n\t%s\n  want:\n\t%s", strings.Join(got, "\n\t"), strings.Join(tc.want, "\n\t"))
			}
		})
	}
}
