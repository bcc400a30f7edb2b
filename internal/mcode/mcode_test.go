package mcode

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"warp/internal/w2"
)

func TestCellProgramCyclesAndInstrs(t *testing.T) {
	p := &CellProgram{Items: []CodeItem{
		&Straight{Instrs: []*Instr{{}, {}}},
		&LoopItem{ID: 0, Trips: 10, Body: []CodeItem{
			&Straight{Instrs: []*Instr{{}, {}, {}}},
		}},
		&Straight{Instrs: []*Instr{{}}},
	}}
	if got := p.Cycles(); got != 2+30+1 {
		t.Errorf("Cycles = %d, want 33", got)
	}
	if got := p.NumInstrs(); got != 6 {
		t.Errorf("NumInstrs = %d, want 6 (static)", got)
	}
}

func TestIUProgramCyclesAndInstrs(t *testing.T) {
	p := &IUProgram{Items: []IUItem{
		&IUStraight{Instrs: []*IUInstr{{}, {}}},
		&IULoop{ID: 0, Trips: 5, Body: []IUItem{
			&IUStraight{Instrs: []*IUInstr{{}, {}, {}, {}}},
		}},
	}}
	if c, _ := CountIU(p); c.Cycles != 2+20 {
		t.Errorf("Cycles = %d, want 22", c.Cycles)
	}
	if got := p.NumInstrs(); got != 6 {
		t.Errorf("NumInstrs = %d, want 6", got)
	}
}

func TestListings(t *testing.T) {
	cell := &CellProgram{Items: []CodeItem{
		&Straight{Instrs: []*Instr{
			{Fields: Fields{HasLit: true, Lit: LitOp{Dst: 3, Value: 1.5}}},
			{Fields: Fields{HasAdd: true, Add: AluOp{Code: Fadd, Dst: 1, Src: [3]Reg{2, 3}}},
				IO: []IOOp{{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: 4}}},
		}},
		&LoopItem{ID: 2, Trips: 7, Body: []CodeItem{
			&Straight{Instrs: []*Instr{{Fields: Fields{HasMov: true, Mov: AluOp{Code: Mov, Dst: 0, Src: [3]Reg{1}}}}}},
		}},
	}}
	l := cell.Listing()
	for _, want := range []string{"lit r3 <- 1.5", "fadd r1 <- r2,r3", "recv r4 <- L.X", "loop L2 (7 times):", "mov r0 <- r1"} {
		if !strings.Contains(l, want) {
			t.Errorf("cell listing misses %q:\n%s", want, l)
		}
	}
	iu := &IUProgram{Items: []IUItem{
		&IUStraight{Instrs: []*IUInstr{
			{Imm: &IUImm{Dst: 2, Value: 40}},
			{Alu: &IUAlu{Dst: 2, A: 2, BIsImm: true, ImmVal: 3}},
			{Out: [MemPorts]*IUOut{{Src: 2}, {FromTable: true}},
				Sig: &IUSig{LoopID: 1, Static: true, Continue: true}},
			{CtrWork: true},
		}},
	}, Table: []int64{7}}
	il := iu.Listing()
	for _, want := range []string{"a2 <- #40", "a2 <- a2 + #3", "adr <- a2", "adr <- table++", "sig L1 continue", "ctr", "table: 1 entries"} {
		if !strings.Contains(il, want) {
			t.Errorf("IU listing misses %q:\n%s", want, il)
		}
	}
}

func TestInstrEmptyAndNop(t *testing.T) {
	in := &Instr{}
	if !in.Empty() || in.String() != "nop" {
		t.Error("empty instruction broken")
	}
	in.HasMov, in.Mov = true, AluOp{Code: Mov}
	if in.Empty() {
		t.Error("mov instruction reported empty")
	}
	iu := &IUInstr{}
	if !iu.Empty() || iu.String() != "nop" {
		t.Error("empty IU instruction broken")
	}
	iu.CtrWork = true
	if iu.Empty() {
		t.Error("counter-work instruction reported empty")
	}
}

func TestAddrInfoShifted(t *testing.T) {
	loop := &w2.ForStmt{Var: "i"}
	aff := w2.AffVar(loop).Scale(3).Add(w2.AffConst(2))
	info := AddrInfo{Affine: aff, Shift: 4, ShiftLoop: loop}
	shifted := info.Shifted()
	// i -> i+4: 3(i+4)+2 = 3i+14.
	if shifted.Const != 14 || shifted.Coef(loop) != 3 {
		t.Errorf("Shifted = %v, want 3i+14", shifted)
	}
	// Without deltas it is the identity.
	info2 := AddrInfo{Affine: aff}
	if !info2.Shifted().Equal(aff) {
		t.Error("Shifted without delta changed the affine")
	}
}

// TestAddrInfoBind: each term binds to the innermost enclosing loop of
// its source statement, First and Step (what software pipelining
// retargets) and the delta fold in, and the range is over all iterations.
func TestAddrInfoBind(t *testing.T) {
	i, j := &w2.ForStmt{Var: "i"}, &w2.ForStmt{Var: "j"}
	info := AddrInfo{Sym: &w2.Symbol{Name: "a"}, Base: 100,
		Affine: w2.AffVar(i).Scale(3).Add(w2.AffVar(j).Scale(-2)).Add(w2.AffConst(2)),
		Shift:  4, ShiftLoop: i}
	loops := []*LoopItem{
		{Src: i, Trips: 9, Step: 1}, // shadowed by the inner loop over i
		{Src: j, Trips: 5, First: 1, Step: 2},
		{Src: i, Trips: 4, First: 2, Step: 1},
	}
	// 100 + 3(i+4) - 2j + 2 at i = 2+k2, j = 1+2·k1: 118 - 4·k1 + 3·k2.
	b, err := info.Bind(loops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Start != 118 || len(b.Terms) != 2 || b.Terms[0] != (LoopTerm{Coef: 3, Depth: 2}) || b.Terms[1] != (LoopTerm{Coef: -4, Depth: 1}) {
		t.Errorf("Bind = %+v, want 118 + 3·k2 - 4·k1", b)
	}
	if b.Lo != 118-16 || b.Hi != 118+9 {
		t.Errorf("range %v..%v, want 102..127", b.Lo, b.Hi)
	}
	// A loop of no trips runs once, at First: its range is one address.
	once := AddrInfo{Sym: info.Sym, Base: 100, Affine: w2.AffVar(i).Scale(3)}
	if b, err := once.Bind([]*LoopItem{{Src: i, Trips: 0, First: 2, Step: 1}}, nil); err != nil || b.Start != 106 || b.Lo != 106 || b.Hi != 106 {
		t.Errorf("zero-trip loop: Bind = %+v, %v; want 106 over 106..106", b, err)
	}
	if _, err := info.Bind(loops[:2], nil); err != nil {
		t.Errorf("outer loop over i not found: %v", err)
	}
	if _, err := info.Bind(loops[:1], nil); err == nil || err.Error() != "a+3*i - 2*j + 2 [i+4] references loop j outside its scope" {
		t.Errorf("unbound j: error %v", err)
	}

	// The range is exact to the edges of int64, and refused past them.
	const refused = "the address range overflows 64 bits"
	for _, tc := range []struct {
		name               string
		base               int
		coef, konst        int64
		first, step, trips int64
		want               string // start lo..hi, or the refusal
	}{
		// buf[2⁶⁰+100 − i] at i = 2⁶⁰: in floating point its range
		// rounded to 0..0.
		{"2^60+100-i", 0, -1, 1<<60 + 100, 1 << 60, 1, 1, "100 100..100"},
		{"up to MaxInt64", 0, 1, 0, math.MaxInt64 - 10, 1, 11, "9223372036854775797 9223372036854775797..9223372036854775807"},
		{"down to MinInt64", 0, -1, -1, math.MaxInt64 - 10, 1, 11, "-9223372036854775798 -9223372036854775808..-9223372036854775798"},
		{"one past MaxInt64", 0, 1, 0, math.MaxInt64 - 10, 1, 12, refused},
		{"one past MinInt64", 0, -1, -2, math.MaxInt64 - 10, 1, 11, refused},
		{"coef·first", 0, 1 << 32, 0, 1 << 31, 1, 1, refused},
		{"coef·step", 0, math.MaxInt64, 0, 0, 2, 1, refused},
		{"step·trips", 0, 1 << 20, 0, 0, 1 << 20, 1 << 24, refused},
		{"base+constant", 1, 1, math.MaxInt64, 0, 1, 1, refused},
	} {
		a := AddrInfo{Sym: info.Sym, Base: tc.base, Affine: w2.AffVar(i).Scale(tc.coef).Add(w2.AffConst(tc.konst))}
		b, err := a.Bind([]*LoopItem{{Src: i, Trips: tc.trips, First: tc.first, Step: tc.step}}, nil)
		got := fmt.Sprintf("%d %d..%d", b.Start, b.Lo, b.Hi)
		if err != nil {
			got = strings.TrimPrefix(err.Error(), a.String()+": ")
		}
		if got != tc.want {
			t.Errorf("%s: Bind gives %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestAluCodeProperties(t *testing.T) {
	if Mov.Latency() != 1 {
		t.Error("mov latency must be 1")
	}
	if Fadd.Latency() != FPULatency || Fmul.Latency() != FPULatency {
		t.Error("FPU latency wrong")
	}
	if !Fmul.OnMulUnit() || !Fdiv.OnMulUnit() || Fadd.OnMulUnit() {
		t.Error("unit assignment wrong")
	}
	if Sel.NumOperands() != 3 || Fneg.NumOperands() != 1 || Fadd.NumOperands() != 2 {
		t.Error("operand counts wrong")
	}
}

// TestEvalBatchMatchesEval: every operation code over every pairing (and
// for sel, triple) of the awkward floats, one lane per combination: the
// batch leaves the bits Eval returns, faults where Eval faults — naming
// the first faulting lane — and without those lanes runs clean.
func TestEvalBatchMatchesEval(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1, 0.75, 3, -2.5e300, 1e-300}
	var files [][NumRegs]float64
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range []float64{math.NaN(), 0, 7} {
				files = append(files, [NumRegs]float64{5: a, 9: b, 2: c})
			}
		}
	}
	for code := Fadd; code <= Fdiv; code++ {
		op := &AluOp{Code: code, Dst: 1, Src: [3]Reg{5, 9, 2}}
		var clean [][NumRegs]float64
		var want []float64
		firstFault := -1
		for l := range files {
			v, err := op.Eval(&files[l])
			if err != nil {
				if firstFault < 0 {
					firstFault = l
				}
				continue
			}
			clean, want = append(clean, files[l]), append(want, v)
		}
		batch := func(files [][NumRegs]float64) ([]float64, error) {
			n := len(files)
			regs, dst := make([]float64, NumRegs*n), make([]float64, n)
			for l := range files {
				for r, v := range files[l] {
					regs[r*n+l] = v
				}
			}
			return dst, op.EvalBatch(dst, regs, n)
		}
		if _, err := batch(files); firstFault < 0 && err != nil {
			t.Errorf("%s: batch faults (%v), no lane does alone", code, err)
		} else if firstFault >= 0 && (err == nil || !strings.HasSuffix(err.Error(), fmt.Sprintf("divide by zero in lane %d", firstFault))) {
			t.Errorf("%s: batch error %v, want the divide by zero of lane %d", code, err, firstFault)
		}
		got, err := batch(clean)
		if err != nil {
			t.Fatalf("%s: %d clean lanes: %v", code, len(clean), err)
		}
		for l := range want {
			if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
				t.Errorf("%s(%v, %v, %v): lane says %v, Eval %v", code, clean[l][5], clean[l][9], clean[l][2], got[l], want[l])
			}
		}
		if code == Fdiv && (firstFault < 0 || len(clean) == len(files)) {
			t.Error("fdiv: no lane divides by zero")
		}
	}
}

// TestLaneRegsMatchCellRegs: random streams of words — FPU, Mov and
// literal fields, held one-cycle writes (more than a well-formed word
// has, now and then), idle skips, and few registers, so that several
// writes meet at one register in one cycle — stepped through n CellRegs
// and one LaneRegs n wide as the executors step them: each CellRegs
// evaluates a field with AluOp.Eval and puts it in flight with PushAt or
// Hold, the LaneRegs runs the field's op (Exec: EvalBatch into PushAt, or
// Hold), and both end the word with Land, Commit and the literal.  After
// every word each lane holds its CellRegs' registers, bit for bit.
func TestLaneRegsMatchCellRegs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	reg := func() Reg { return Reg(rng.Intn(6)) }
	val := func() float64 { return float64(rng.Intn(64)-32) / 4 }
	field := func(on *bool, op *AluOp, codes ...AluCode) {
		if *on = rng.Intn(2) == 0; *on {
			*op = AluOp{Code: codes[rng.Intn(len(codes))], Dst: reg(), Src: [3]Reg{reg(), reg(), reg()}}
		}
	}
	for _, n := range []int{1, 2, 3, 7, 32} {
		for stream := 0; stream < 40; stream++ {
			cells := make([]CellRegs, n)
			for l := range cells {
				cells[l].Reset()
			}
			var lanes LaneRegs
			lanes.Reset(n, make([]float64, LaneRegWords*n))
			vals := make([]float64, n)
			t0 := int64(0)
			for i := 0; i < 80; i, t0 = i+1, t0+1 {
				var w Fields
				skip := int64(0)
				if rng.Intn(4) == 0 {
					skip = int64(rng.Intn(FPULatency + 2))
				}
				field(&w.HasAdd, &w.Add, Fadd, Fsub, Fneg, CmpLT, BoolOr, Sel)
				field(&w.HasMul, &w.Mul, Fmul)
				field(&w.HasMov, &w.Mov, Mov)
				if w.HasLit = rng.Intn(4) == 0; w.HasLit {
					w.Lit = LitOp{Dst: reg(), Value: val()}
				}
				if skip > 0 {
					t0 += skip
					for l := range cells {
						cells[l].Land(t0)
					}
					lanes.Land(t0)
				}
				holds := rng.Intn(5)
				if rng.Intn(8) == 0 {
					holds = maxHeld + 2
				}
				for k := 0; k < holds; k++ {
					g := reg()
					for l := range vals {
						vals[l] = val()
						cells[l].Hold(g, vals[l])
					}
					copy(lanes.Hold(g), vals)
				}
				for _, f := range []struct {
					on bool
					op *AluOp
				}{{w.HasAdd, &w.Add}, {w.HasMul, &w.Mul}, {w.HasMov, &w.Mov}} {
					if !f.on {
						continue
					}
					for l := range cells {
						c := &cells[l]
						v, err := f.op.Eval(&c.R)
						if err != nil {
							t.Fatal(err)
						}
						if lat := f.op.Code.Latency(); lat == 1 {
							c.Hold(f.op.Dst, v)
						} else {
							c.PushAt(f.op.Dst, v, t0+lat)
						}
					}
					o := aluOp(f.op)
					if err := lanes.Exec(&o, t0); err != nil {
						t.Fatal(err)
					}
				}
				for l := range cells {
					cells[l].Land(t0 + 1)
					cells[l].Commit()
					if w.HasLit {
						cells[l].R[w.Lit.Dst] = w.Lit.Value
					}
				}
				lanes.Land(t0 + 1)
				lanes.Commit()
				if w.HasLit {
					lanes.Set(w.Lit.Dst, w.Lit.Value)
				}
				for g := Reg(0); g < NumRegs; g++ {
					for l, v := range lanes.Lanes(g) {
						if math.Float64bits(v) != math.Float64bits(cells[l].R[g]) {
							t.Fatalf("width %d, stream %d, word %d (skip %d, %+v): lane %d %s = %v, its CellRegs %v",
								n, stream, i, skip, w, l, g, v, cells[l].R[g])
						}
					}
				}
			}
		}
	}
}

func TestValidateCellCatchesBadPrograms(t *testing.T) {
	bad := []*CellProgram{
		{Items: []CodeItem{&Straight{Instrs: []*Instr{
			{Fields: Fields{HasAdd: true, Add: AluOp{Code: Fadd, Dst: 200}}},
		}}}},
		{Items: []CodeItem{&Straight{Instrs: []*Instr{
			{Fields: Fields{HasAdd: true, Add: AluOp{Code: Fmul, Dst: 1}}},
		}}}},
		{Items: []CodeItem{&Straight{Instrs: []*Instr{
			{Fields: Fields{HasMov: true, Mov: AluOp{Code: Fadd, Dst: 1}}},
		}}}},
		{Items: []CodeItem{&Straight{Instrs: []*Instr{
			{IO: []IOOp{
				{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: 1},
				{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: 2},
			}},
		}}}},
		{Items: []CodeItem{&LoopItem{ID: 0, Trips: 0, Body: []CodeItem{
			&Straight{Instrs: []*Instr{{}}},
		}}}},
		{Items: []CodeItem{&LoopItem{ID: 0, Trips: 3}}},
	}
	for i, p := range bad {
		if err := ValidateCell(p); err == nil {
			t.Errorf("bad program %d accepted", i)
		}
	}
}

func TestCountCell(t *testing.T) {
	p := &CellProgram{Items: []CodeItem{
		&LoopItem{ID: 0, Trips: 4, Body: []CodeItem{
			&Straight{Instrs: []*Instr{
				{IO: []IOOp{{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: 0}}},
				{Mem: [MemPorts]MemOp{{Kind: MemStore, Reg: 0}}},
				{IO: []IOOp{{Recv: false, Dir: w2.DirR, Chan: w2.ChanY, Reg: 0}}},
			}},
			&LoopItem{ID: 1, Trips: 2, Body: []CodeItem{
				&Straight{Instrs: []*Instr{
					{Mem: [MemPorts]MemOp{{Kind: MemLoad, Reg: 1}}},
					{}, // a scheduled nop: a cycle, not an operation
				}},
			}},
		}},
	}}
	c, err := CountCell(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops != 4*3+8 {
		t.Errorf("Ops = %d, want 20 non-empty instructions", c.Ops)
	}
	if c.Recv[w2.ChanX] != 4 || c.Send[w2.ChanY] != 4 {
		t.Errorf("I/O counts wrong: %+v", c)
	}
	if c.AdrPops != 4+8 {
		t.Errorf("AdrPops = %d, want 12", c.AdrPops)
	}
	if c.Signals != 4+8 {
		t.Errorf("Signals = %d, want 12", c.Signals)
	}
}

// TestElaborateIU pins the IU register machine's one definition: writes
// land next cycle, the adder wins a same-register tie, table over-reads
// yield 0 and are located, dynamic signals follow the enclosing loop's
// iteration, and the cycle limit cuts the trace short.
func TestElaborateIU(t *testing.T) {
	out := func(o *IUOut) *IUInstr { return &IUInstr{Out: [MemPorts]*IUOut{o}} }
	tie := out(&IUOut{Src: 1}) // reads a1 before either write lands
	tie.Imm = &IUImm{Dst: 1, Value: 9}
	tie.Alu = &IUAlu{Dst: 1, A: 0, BIsImm: true, ImmVal: 40}
	p := &IUProgram{
		Items: []IUItem{
			&IUStraight{Instrs: []*IUInstr{tie, out(&IUOut{Src: 1})}},
			&IULoop{ID: 5, Trips: 2, Body: []IUItem{&IUStraight{Instrs: []*IUInstr{
				{Alu: &IUAlu{Dst: 1, A: 1, B: 1, Sub: true}, Out: [MemPorts]*IUOut{{FromTable: true}, {FromTable: true}}},
				{Sig: &IUSig{LoopID: 5, M: 1, CellTrips: 2}, Out: [MemPorts]*IUOut{{Src: 1}}},
			}}}},
		},
		Table: []int64{7, 8, 9},
	}
	code, err := DecodeIU(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, done := code.Elaborate(p.Table, 100)
	if c, _ := CountIU(p); !done || tr.Cycles != c.Cycles {
		t.Fatalf("done=%v after %d cycles, want all %d", done, tr.Cycles, c.Cycles)
	}
	wantAdr := []AdrEvent{
		{Val: 0, At: 0, PC: 0}, {Val: 40, At: 1, PC: 1},
		{Val: 7, At: 2, PC: 2}, {Val: 8, At: 2, PC: 2}, {Val: 0, At: 3, PC: 3},
		{Val: 9, At: 4, PC: 2}, {Val: 0, At: 4, PC: 2}, {Val: 0, At: 5, PC: 3},
	}
	if len(tr.Adr) != len(wantAdr) {
		t.Fatalf("%d addresses, want %d: %+v", len(tr.Adr), len(wantAdr), tr.Adr)
	}
	for i, w := range wantAdr {
		if tr.Adr[i] != w {
			t.Errorf("address %d = %+v, want %+v", i, tr.Adr[i], w)
		}
	}
	if tr.TableReads != 4 || tr.OverRead != 6 {
		t.Errorf("table: %d reads, first over-read at address %d; want 4 and 6", tr.TableReads, tr.OverRead)
	}
	wantSigs := []SigEvent{{ID: 5, More: true, At: 3, PC: 3}, {ID: 5, More: false, At: 5, PC: 3}}
	if len(tr.Sigs) != 2 || tr.Sigs[0] != wantSigs[0] || tr.Sigs[1] != wantSigs[1] {
		t.Errorf("signals %+v, want %+v", tr.Sigs, wantSigs)
	}
	if c, _ := CountIU(p); c.AdrOuts != int64(len(tr.Adr)) || c.TableOuts != int64(tr.TableReads) || c.Signals != int64(len(tr.Sigs)) {
		t.Errorf("closed-form counts %+v disagree with the trace", c)
	}

	if short, done := code.Elaborate(p.Table, 3); done || short.Cycles != 3 || len(short.Adr) != 4 {
		t.Errorf("limit 3: done=%v after %d cycles with %d addresses; want a 3-cycle partial trace", done, short.Cycles, len(short.Adr))
	}
}

// TestDecodeIndexIsPC: a decoded word covers the µPCs, WalkInstrs indices,
// its idle instructions and its issuing one, back to back from PC,
// through nested loops and empty blocks; idle runs split at loop heads,
// and NumInstrs is the decoded length in cycles.
func TestDecodeIndexIsPC(t *testing.T) {
	block := func(n int) *Straight {
		s := &Straight{}
		for i := 0; i < n; i++ {
			s.Instrs = append(s.Instrs, &Instr{})
		}
		return s
	}
	inner := &LoopItem{ID: 1, Trips: 3, Body: []CodeItem{block(2)}}
	p := &CellProgram{Items: []CodeItem{
		block(1), block(0),
		&LoopItem{ID: 0, Trips: 2, Body: []CodeItem{block(1), inner, block(0)}},
		block(2),
	}}
	n := p.NumInstrs()
	code, err := Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	pc := 0
	for i, w := range code.Words {
		if int(w.PC) != pc || !w.Nop {
			t.Errorf("word %d starts at µPC %d (nop %v), want %d", i, w.PC, w.Nop, pc)
		}
		pc += int(w.Skip) + 1
	}
	if pc != n || len(code.Words) != 4 {
		t.Fatalf("%d words over %d µPCs, NumInstrs %d", len(code.Words), pc, n)
	}
	// The inner loop's last word closes both loops, innermost first, and
	// the back edges go to the words at the loops' heads.
	last := code.Words[2]
	if ends := code.Ends[last.EndLo:last.EndHi]; code.Depth != 2 || last.Depth != 2 || len(ends) != 2 ||
		ends[0] != (LoopEnd{ID: 1, Trips: 3, Head: 2}) || ends[1] != (LoopEnd{ID: 0, Trips: 2, Head: 1}) {
		t.Errorf("depth %d, word 2 = depth %d ends %+v", code.Depth, last.Depth, ends)
	}
}

// TestWordIsPointerFree: a decoded word and its ops hold no pointer, so
// Decoded.Words, Ops and Mems are slabs the garbage collector does not
// scan, and they stay compact: a word in 32 bytes, an op in 8, which is
// what an executor body walks (the fast one-wide body measured 5–10 %
// slower over 48-byte words).  The instruction embeds its field block,
// so the code generator writes the fields in one assignment.
func TestWordIsPointerFree(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	for _, v := range []any{Word{}, Op{}, MemField{}} {
		check(reflect.TypeOf(v).Name(), reflect.TypeOf(v))
	}
	if w, o := reflect.TypeOf(Word{}).Size(), reflect.TypeOf(Op{}).Size(); w > 32 || o != 8 {
		t.Errorf("a word takes %d bytes and an op %d, want at most 32 and 8", w, o)
	}
	if f, ok := reflect.TypeOf(Instr{}).FieldByName("Fields"); !ok || !f.Anonymous || f.Type != reflect.TypeOf(Fields{}) {
		t.Error("Instr does not embed Fields")
	}
}
