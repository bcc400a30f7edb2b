package fastexec_test

import (
	"testing"

	"warp/internal/fastexec"
	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/sim"
	"warp/internal/w2"
)

// The rejection tests pin every refusal of a plan build with its exact
// error text, one smallest hand-built program per check.  A plan is built
// only with the verifier's report, so Compile verifies first and refuses
// what the verifier refuses.

var (
	sym = &w2.Symbol{Name: "buf", Kind: w2.SymCellArray}
	idx = &w2.ForStmt{Var: "i"}
	// walk loads buf[4+i].
	walk = &mcode.Instr{Mem: [mcode.MemPorts]mcode.MemOp{{Kind: mcode.MemLoad, Reg: 1,
		Addr: mcode.AddrInfo{Sym: sym, Base: 4, Affine: w2.AffVar(idx)}}}}
)

func recv(dir w2.Direction) *mcode.Instr {
	return &mcode.Instr{IO: []mcode.IOOp{{Recv: true, Dir: dir, Chan: w2.ChanX, Reg: 1}}}
}

func send(dir w2.Direction) *mcode.Instr {
	return &mcode.Instr{IO: []mcode.IOOp{{Dir: dir, Chan: w2.ChanY, Reg: 1}}}
}

func cell(items ...mcode.CodeItem) *mcode.CellProgram { return &mcode.CellProgram{Items: items} }
func code(instrs ...*mcode.Instr) mcode.CodeItem      { return &mcode.Straight{Instrs: instrs} }
func loop(id int, trips int64, body ...mcode.CodeItem) mcode.CodeItem {
	return &mcode.LoopItem{ID: id, Trips: trips, Body: body}
}
func iu(items ...mcode.IUItem) *mcode.IUProgram { return &mcode.IUProgram{Items: items} }
func iuCode(instrs ...*mcode.IUInstr) mcode.IUItem {
	return &mcode.IUStraight{Instrs: instrs}
}
func sig(id int, more bool) *mcode.IUInstr {
	return &mcode.IUInstr{Sig: &mcode.IUSig{LoopID: id, Static: true, Continue: more}}
}
func host(in, out int) *hostgen.Program {
	return &hostgen.Program{
		In:  map[w2.Channel]hostgen.Stream{w2.ChanX: hostgen.Of(make([]hostgen.Word, in)...)},
		Out: map[w2.Channel]hostgen.Stream{w2.ChanY: hostgen.Of(make([]hostgen.Word, out)...)},
	}
}

// wellFormed is the smallest verified program of these shapes: buf[4+i]
// is loaded over two iterations, the IU reading both addresses from its
// table.
func wellFormed(table ...int64) sim.Config {
	return sim.Config{Cells: 1, Lead: 2,
		Cell: cell(&mcode.LoopItem{ID: 3, Trips: 2, Src: idx, Step: 1,
			Body: []mcode.CodeItem{code(walk, recv(w2.DirL), send(w2.DirR))}}),
		IU: &mcode.IUProgram{Items: []mcode.IUItem{
			iuCode(&mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{FromTable: true}}}, sig(3, true)),
			iuCode(&mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{FromTable: true}}}, sig(3, false)),
		}, Table: table},
		Host: host(2, 2)}
}

// TestCompileRejections pins what Compile says of each program that
// once failed one of the plan build's own checks.  Compile verifies
// first, so the shape and IU-stream checks are the verifier's
// diagnostics now (TestPlanChecksInVerifier pins the IU's in
// internal/verify), a program past the old 2²²-cycle caps builds (want
// ""), and the programs of the checks the build once made on the cell
// program are refused by the verifier too.  The fixtures start cell 0 a
// cycle after the IU, as the verifier requires.
func TestCompileRejections(t *testing.T) {
	huge := int64(1) << 23 // over the 1<<22-cycle trace cap
	load := &mcode.Instr{Mem: [mcode.MemPorts]mcode.MemOp{{Kind: mcode.MemLoad, Reg: 1, Addr: mcode.AddrInfo{Sym: sym}}}}
	dyn := &mcode.IUInstr{Sig: &mcode.IUSig{LoopID: 3, M: 1, CellTrips: huge}}
	cases := []struct {
		name string
		p    sim.Config
		want string
	}{
		{"no-cells",
			sim.Config{Cells: 0, Cell: cell(), IU: iu(), Host: host(0, 0)},
			"fastexec: verify: [structure]: array of 0 cells"},
		{"incomplete",
			sim.Config{Cells: 1, Cell: cell(), IU: iu()},
			"fastexec: verify: [structure]: missing cell, IU or host program"},
		{"no-programs", // loaded all the same (sim.Load), and refused alike
			sim.Config{Cells: 1},
			"fastexec: verify: [structure]: missing cell, IU or host program"},
		{"cell-trace-cap",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(loop(3, huge, code(&mcode.Instr{}))),
				IU: iu(&mcode.IULoop{ID: 0, Trips: huge, Body: []mcode.IUItem{iuCode(dyn)}}), Host: host(0, 0)},
			""},
		{"iu-trace-cap",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(),
				IU:   iu(&mcode.IULoop{ID: 3, Trips: huge, Body: []mcode.IUItem{iuCode(&mcode.IUInstr{})}}),
				Host: host(0, 0)},
			""},
		{"iu-table-over-read",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(code(load)),
				IU:   &mcode.IUProgram{Items: []mcode.IUItem{iuCode(&mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{FromTable: true}, {FromTable: true}}})}, Table: []int64{7}},
				Host: host(0, 0)},
			"fastexec: verify: 2 invariant violations:\n  instr 0 [addr-stream]: IU reads past the end of its 1-entry address table at cycle 0\n  [addr-stream]: IU emits 2 addresses but each cell makes 1 memory references"},
		{"address-stream-dry",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(code(&mcode.Instr{}, load)), IU: iu(), Host: host(0, 0)},
			"fastexec: verify: [addr-stream]: IU emits 0 addresses but each cell makes 1 memory references"},
		{"address-out-of-range",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(code(&mcode.Instr{}, load)),
				IU: iu(iuCode(
					&mcode.IUInstr{Imm: &mcode.IUImm{Dst: 2, Value: 5000}},
					&mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{Src: 2}}})),
				Host: host(0, 0)},
			"fastexec: verify: instr 1 [addr-stream]: IU emits address 5000 at cycle 1, outside the 4096-word cell memory"},
		{"address-mismatch", wellFormed(4, 6), // in range, but the second iteration loads buf[4+1]
			"fastexec: verify: instr 2 [addr-value]: address 1: the IU sends 6 at cycle 2 where cell instruction 0 port 0 (buf+i) names 5"},
		{"signal-stream-dry",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(loop(3, 2, code(&mcode.Instr{}))),
				IU: iu(iuCode(sig(3, true))), Host: host(0, 0)},
			"fastexec: verify: [sig-stream]: IU emits 1 loop signals but each cell crosses 2 loop boundaries"},
		{"signal-mismatch",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(loop(3, 2, code(&mcode.Instr{}))),
				IU: iu(iuCode(sig(3, true), sig(4, false))), Host: host(0, 0)},
			"fastexec: verify: instr 1 loop L3 [sig-stream]: signal 1: IU sends L4(more=false) but the sequencer crosses L3(more=false)"},
		{"cell-trip-count",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(loop(3, 0, code(&mcode.Instr{}))), IU: iu(), Host: host(0, 0)},
			"fastexec: verify: [structure]: cell program: loop L3: 0 trips"},
		{"iu-trip-count",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(),
				IU:   iu(&mcode.IULoop{ID: 3, Trips: -1, Body: []mcode.IUItem{iuCode(&mcode.IUInstr{})}}),
				Host: host(0, 0)},
			"fastexec: verify: [structure]: IU program: IU loop L3: -1 trips"},
		{"empty-loop-body",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(loop(3, 2, code())), IU: iu(), Host: host(0, 0)},
			"fastexec: verify: [structure]: cell program: loop L3: empty body"},
		{"receive-from-right",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(code(recv(w2.DirR))), IU: iu(), Host: host(1, 0)},
			"fastexec: verify: instr 0 [structure]: receive from the right: rightward flow only"},
		{"send-to-left",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(code(send(w2.DirL))), IU: iu(), Host: host(0, 1)},
			"fastexec: verify: instr 0 [structure]: send to the left: rightward flow only"},
		{"host-input-short",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(code(recv(w2.DirL), recv(w2.DirL))), IU: iu(), Host: host(1, 0)},
			"fastexec: verify: cell 0 [host-stream]: host feeds 1 words on X but the first cell receives 2"},
		{"host-output-short",
			sim.Config{Cells: 1, Lead: 1, Cell: cell(code(send(w2.DirR), send(w2.DirR))), IU: iu(), Host: host(0, 1)},
			"fastexec: verify: cell 0 [host-stream]: host expects 1 words on Y but the last cell sends 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := fastexec.Compile(tc.p)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("no plan: %v", err)
			case tc.want == "" && plan.Words() > 1:
				t.Errorf("a %d-word plan for one microinstruction", plan.Words())
			case tc.want == "":
			case err == nil:
				t.Fatalf("compiled a %d-op plan; want error %q", plan.Ops(), tc.want)
			case err.Error() != tc.want:
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

// TestCompileLoadedNeedsReport: no report, no plan.
func TestCompileLoadedNeedsReport(t *testing.T) {
	plan, err := fastexec.CompileLoaded(sim.Load(wellFormed(4, 5)), nil)
	if want := "fastexec: no verification report: a plan is built only for a verified program"; err == nil || err.Error() != want {
		t.Fatalf("CompileLoaded(nil report) = %v, %v; want error %q", plan, err, want)
	}
}

// TestFarAddressRunsAlike: a program whose memory fields name buf[2⁶⁰+100
// − i] at i = 2⁶⁰, word 100, which the verifier accepts with its exact
// envelope of that one word, runs alike on the simulator, on the
// simulator's batched walk (whose memory is the envelope) and on the
// fast plan: each cell stores the word it receives there and sends it on
// loaded back, so every image ends with the input delivered, in the same
// cycles.
func TestFarAddressRunsAlike(t *testing.T) {
	big := &w2.ForStmt{Var: "i"}
	aff := w2.AffVar(big)
	aff.Terms[0].Coef, aff.Const = -1, 1<<60+100
	far := mcode.AddrInfo{Sym: sym, Affine: aff}
	store, load := &mcode.Instr{}, &mcode.Instr{}
	store.Mem[0] = mcode.MemOp{Kind: mcode.MemStore, Reg: 1, Addr: far}
	load.Mem[0] = mcode.MemOp{Kind: mcode.MemLoad, Reg: 2, Addr: far}
	out := &mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{Src: 2}}}
	p := sim.Config{Cells: 2, Skew: 4, Lead: 1,
		Cell: cell(&mcode.LoopItem{ID: 3, Trips: 1, Src: big, First: 1 << 60, Step: 1, Body: []mcode.CodeItem{code(
			&mcode.Instr{IO: []mcode.IOOp{{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: 1}}},
			store, load,
			&mcode.Instr{IO: []mcode.IOOp{{Dir: w2.DirR, Chan: w2.ChanX, Reg: 2}}})}}),
		IU: iu(iuCode(&mcode.IUInstr{Imm: &mcode.IUImm{Dst: 2, Value: 100}}, out, out, sig(3, false))),
		Host: &hostgen.Program{
			In:  map[w2.Channel]hostgen.Stream{w2.ChanX: hostgen.Of(hostgen.Word{Index: 0})},
			Out: map[w2.Channel]hostgen.Stream{w2.ChanX: hostgen.Of(hostgen.Word{Index: 1})},
		}}
	plan, err := fastexec.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Cells: p.Cells, Cell: p.Cell, IU: p.IU, Host: p.Host, Skew: p.Skew, Lead: p.Lead}
	if code, err := sim.Load(cfg).Code(); err != nil || code.MemLo != 100 || code.MemWords != 1 {
		t.Fatalf("envelope %d words from %d (%v), want the one word 100", code.MemWords, code.MemLo, err)
	}
	image := func() []float64 { return []float64{42, 0} }
	var runs []struct {
		name   string
		mem    []float64
		cycles int64
	}
	record := func(name string, mem []float64, st *sim.Stats, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs = append(runs, struct {
			name   string
			mem    []float64
			cycles int64
		}{name, mem, st.Cycles})
	}
	cfg.HostMem = image()
	st, err := sim.Run(cfg)
	record("sim", cfg.HostMem, st, err)
	wide := [][]float64{image(), image()}
	st, err = sim.Load(cfg).RunBatch(cfg, wide)
	record("sim, two lanes", wide[1], st, err)
	mem := image()
	st, err = plan.Execute(mem, sim.Controls{})
	record("fast", mem, st, err)
	for _, r := range runs {
		if r.mem[1] != 42 || r.cycles != runs[0].cycles {
			t.Errorf("%s: delivered %v in %d cycles; want 42 in %d", r.name, r.mem[1], r.cycles, runs[0].cycles)
		}
	}
}
