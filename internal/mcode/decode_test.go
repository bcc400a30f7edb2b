package mcode_test

import (
	"fmt"
	"math/rand"
	"testing"

	"warp/internal/mcode"
	"warp/internal/mcode/mcodetest"
	"warp/internal/w2"
)

// randomCell is a straight-line cell program of random words: queue
// fields in both directions and on both channels, memory ports at
// constant addresses, ADD, MUL and move fields with any code (a move's
// code in the ADD field now and then, as the lowering must not care
// which field carries it), literals, idle words between them, and now
// and then a register outside the file.
func randomCell(rng *rand.Rand) *mcode.CellProgram {
	buf := &w2.Symbol{Name: "buf", Kind: w2.SymCellArray}
	reg := func() mcode.Reg {
		if rng.Intn(16) == 0 {
			return mcode.Reg([]int{64, 200, 255, 300, 1 << 20}[rng.Intn(5)])
		}
		return mcode.Reg(rng.Intn(8))
	}
	field := func(on *bool, op *mcode.AluOp, codes ...mcode.AluCode) {
		if *on = rng.Intn(2) == 0; *on {
			*op = mcode.AluOp{Code: codes[rng.Intn(len(codes))], Dst: reg(), Src: [3]mcode.Reg{reg(), reg(), reg()}}
		}
	}
	var instrs []*mcode.Instr
	for range 60 {
		in := &mcode.Instr{}
		if rng.Intn(5) == 0 {
			instrs = append(instrs, in)
			continue
		}
		for range rng.Intn(4) {
			in.IO = append(in.IO, mcode.IOOp{Recv: rng.Intn(2) == 0, Dir: w2.Direction(rng.Intn(2)),
				Chan: w2.Channel(rng.Intn(2)), Reg: reg()})
		}
		for port := range in.Mem {
			if k := uint8(rng.Intn(3)); k != mcode.MemNone {
				in.Mem[port] = mcode.MemOp{Kind: k, Reg: reg(), Addr: mcode.AddrInfo{Sym: buf, Affine: w2.Affine{Const: int64(rng.Intn(64))}}}
			}
		}
		field(&in.HasAdd, &in.Add, mcode.Fadd, mcode.Fsub, mcode.Fneg, mcode.CmpLT, mcode.BoolOr, mcode.Sel, mcode.Mov)
		field(&in.HasMul, &in.Mul, mcode.Fmul, mcode.Fdiv)
		field(&in.HasMov, &in.Mov, mcode.Mov)
		if in.HasLit = rng.Intn(4) == 0; in.HasLit {
			in.Lit = mcode.LitOp{Dst: reg(), Value: float64(rng.Intn(9))}
		}
		instrs = append(instrs, in)
	}
	return &mcode.CellProgram{Items: []mcode.CodeItem{&mcode.Straight{Instrs: instrs}}}
}

// narrowed is an op's byte for register r: itself inside the file, and
// outside it (255 at most) outside.
func narrowed(r mcode.Reg) uint8 { return uint8(min(uint(r), 255)) }

// wantOps lowers one instruction as the machine executes it: its queue
// fields in their order (a receive from the right or a send to the left
// the refusal), its memory ports in port order, bound to the memory
// fields mem on, then its ADD, MUL and move fields.
func wantOps(in *mcode.Instr, mem int) []mcode.Op {
	var ops []mcode.Op
	for _, io := range in.IO {
		switch {
		case io.Recv && io.Dir != w2.DirL:
			ops = append(ops, mcode.Op{Kind: mcode.OpRecvRight})
		case io.Recv:
			ops = append(ops, mcode.Op{Kind: mcode.OpRecv, Dst: narrowed(io.Reg), X: uint32(io.Chan)})
		case io.Dir != w2.DirR:
			ops = append(ops, mcode.Op{Kind: mcode.OpSendLeft})
		default:
			ops = append(ops, mcode.Op{Kind: mcode.OpSend, A: narrowed(io.Reg), X: uint32(io.Chan)})
		}
	}
	for port, mo := range in.Mem {
		switch mo.Kind {
		case mcode.MemLoad:
			ops = append(ops, mcode.Op{Kind: mcode.OpLoad, Dst: narrowed(mo.Reg), B: uint8(port), X: uint32(mem)})
		case mcode.MemStore:
			ops = append(ops, mcode.Op{Kind: mcode.OpStore, A: narrowed(mo.Reg), B: uint8(port), X: uint32(mem)})
		default:
			continue
		}
		mem++
	}
	kinds := map[mcode.AluCode]mcode.OpKind{mcode.Fadd: mcode.OpFadd, mcode.Fsub: mcode.OpFsub, mcode.Fmul: mcode.OpFmul, mcode.Mov: mcode.OpMov}
	for _, f := range []struct {
		on bool
		op mcode.AluOp
	}{{in.HasAdd, in.Add}, {in.HasMul, in.Mul}, {in.HasMov, in.Mov}} {
		if !f.on {
			continue
		}
		o := mcode.Op{Dst: narrowed(f.op.Dst), A: narrowed(f.op.Src[0]), B: narrowed(f.op.Src[1])}
		if k, ok := kinds[f.op.Code]; ok {
			o.Kind = k
		} else {
			o.Kind, o.X = mcode.OpEval, uint32(f.op.Code)|uint32(narrowed(f.op.Src[2]))<<8
		}
		ops = append(ops, o)
	}
	return ops
}

// TestDecodeOps: every word's op range holds exactly its instruction's
// fields, in the order the machine executes them, each memory op bound
// to its own memory field, and the FPU ops give back their fields; the
// words carry the issuing µPC, the units that issue and the literal.
// Random words and the landing corners both executors run.
func TestDecodeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var progs []*mcode.CellProgram
	for range 40 {
		progs = append(progs, randomCell(rng))
	}
	for _, c := range mcodetest.LandingCases() {
		progs = append(progs, c.Cell)
	}
	outside := 0 // ops naming a register outside the file, which must stay outside it
	for pi, p := range progs {
		code, err := mcode.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		var instrs []*mcode.Instr
		mcode.WalkInstrs(p.Items, func(in *mcode.Instr, _ []*mcode.LoopItem) { instrs = append(instrs, in) })
		next, mem := 0, 0 // the ops and memory fields the words so far took
		for wi, w := range code.Words {
			where := fmt.Sprintf("program %d, word %d", pi, wi)
			if int(w.Lo) != next || w.Hi < w.Lo {
				t.Fatalf("%s: ops [%d, %d), want from %d", where, w.Lo, w.Hi, next)
			}
			next = int(w.Hi)
			in := instrs[int(w.PC)+int(w.Skip)]
			if w.Nop != in.Empty() {
				t.Fatalf("%s: nop %v for %s", where, w.Nop, in)
			}
			want := wantOps(in, mem)
			got := code.Ops[w.Lo:w.Hi]
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s (%s):\nops  %+v\nwant %+v", where, in, got, want)
			}
			for _, o := range got {
				if o.Dst >= mcode.NumRegs || o.A >= mcode.NumRegs {
					outside++
				}
			}
			if w.HasAdd != in.HasAdd || w.HasMul != in.HasMul || w.HasMov != in.HasMov ||
				w.Lit != in.HasLit || in.HasLit && (w.LitDst != narrowed(in.Lit.Dst) || code.Lits[wi] != in.Lit.Value) {
				t.Errorf("%s: word %+v for %s", where, w, in)
			}
			for port, mo := range in.Mem {
				if mo.Kind == mcode.MemNone {
					continue
				}
				if m := code.Mems[mem]; code.MemLo+m.Start != mo.Addr.Affine.Const || m.TermLo != m.TermHi {
					t.Errorf("%s: port %d bound to %+v from %d, want address %d", where, port, m, code.MemLo, mo.Addr.Affine.Const)
				}
				mem++
			}
			fields := []mcode.AluOp{}
			for _, f := range []struct {
				on bool
				op mcode.AluOp
			}{{in.HasAdd, in.Add}, {in.HasMul, in.Mul}, {in.HasMov, in.Mov}} {
				if f.on {
					fields = append(fields, f.op)
				}
			}
			fpu := got[len(got)-len(fields):]
			for k, f := range fields {
				a := fpu[k].Alu()
				if a.Code != f.Code || a.Dst != mcode.Reg(narrowed(f.Dst)) {
					t.Errorf("%s: op %+v gives back %s, want %s", where, fpu[k], &a, &f)
				}
				for s := range f.Code.NumOperands() {
					if a.Src[s] != mcode.Reg(narrowed(f.Src[s])) {
						t.Errorf("%s: op %+v gives back %s, want %s", where, fpu[k], &a, &f)
					}
				}
			}
		}
		if next != len(code.Ops) || mem != len(code.Mems) || len(code.Lits) != len(code.Words) {
			t.Errorf("program %d: the words take %d of %d ops and %d of %d memory fields, %d literals", pi, next, len(code.Ops), mem, len(code.Mems), len(code.Lits))
		}
	}
	if outside == 0 {
		t.Error("no op names a register outside the file")
	}
}

// TestOpEvalIsAluOpEval: an OpEval op computes what its field's AluOp.Eval
// does, faults included, for every code only Eval computes.
func TestOpEvalIsAluOpEval(t *testing.T) {
	var regs [mcode.NumRegs]float64
	for r := range regs {
		regs[r] = float64(r%5) - 2
	}
	for code := mcode.Fadd; code <= mcode.Fdiv; code++ {
		for _, src := range [][3]mcode.Reg{{1, 2, 3}, {2, 0, 4}, {0, 2, 1}, {4, 7, 9}} {
			f := mcode.AluOp{Code: code, Dst: 5, Src: src}
			in := &mcode.Instr{Fields: mcode.Fields{HasAdd: true, Add: f}}
			d, err := mcode.Decode(&mcode.CellProgram{Items: []mcode.CodeItem{&mcode.Straight{Instrs: []*mcode.Instr{in}}}})
			if err != nil {
				t.Fatal(err)
			}
			o := &d.Ops[0]
			if o.Kind != mcode.OpEval {
				continue
			}
			want, werr := f.Eval(&regs)
			got, err := o.Eval(&regs)
			if got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Errorf("%s: op gives %v, %v; the field %v, %v", &f, got, err, want, werr)
			}
		}
	}
}
