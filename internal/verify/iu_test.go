package verify

import (
	"math/rand"
	"testing"

	"warp/internal/mcode"
)

// Quick-check of the IU proofs on hand-built random IU nests, against
// mcode.IUCode.Elaborate (compareIU): nesting to depth 3, trip counts of
// 0, 1 and up to 10⁶, and everything iugen never emits — register
// operands to the adder, an immediate and the adder writing one register
// in one word, resets anywhere in a body, dynamic signals of either
// slope.  A nest the fold refuses must hold a loop whose body really is
// neither a translation nor a reset of the register it names, which a
// second oracle measures by elaborating that body alone.

// randIUItems builds a random item list; trips is the innermost
// enclosing loop's trip count (1 at the top), budget bounds the product
// of trip counts still to hand out.
func randIUItems(rng *rand.Rand, depth int, trips, budget int64, id *int) []mcode.IUItem {
	var items []mcode.IUItem
	for n := 1 + rng.Intn(3); n > 0; n-- {
		if depth > 0 && rng.Intn(2) == 0 {
			t := min([]int64{0, 1, 1, 2, 3, 7, 40, 1000, 1000000}[rng.Intn(9)], budget)
			*id++
			l := &mcode.IULoop{ID: *id, Trips: t}
			inner := depth - 1
			if t >= 1000 {
				inner = 0 // a long loop gets one straight body, or the oracle would take too long
			}
			l.Body = randIUItems(rng, inner, max(t, 1), budget/max(t, 1), id)
			items = append(items, l)
			continue
		}
		words := make([]*mcode.IUInstr, 1+rng.Intn(3))
		for i := range words {
			words[i] = randIUWord(rng, trips)
		}
		items = append(items, &mcode.IUStraight{Instrs: words})
	}
	return items
}

// randIUWord draws one IU word over four registers, so that writes and
// reads of one register meet often.
func randIUWord(rng *rand.Rand, trips int64) *mcode.IUInstr {
	reg := func() mcode.IUReg { return mcode.IUReg(rng.Intn(4)) }
	w := &mcode.IUInstr{}
	switch rng.Intn(8) {
	case 0, 1: // counter work or nothing
		w.CtrWork = rng.Intn(2) == 0
	case 2: // a reset
		w.Imm = &mcode.IUImm{Dst: reg(), Value: rng.Int63n(300) - 20}
	case 3, 4: // an induction step
		r := reg()
		w.Alu = &mcode.IUAlu{Dst: r, A: r, BIsImm: true, ImmVal: rng.Int63n(9) - 4, Sub: rng.Intn(2) == 0}
	case 5: // the adder on anything
		w.Alu = &mcode.IUAlu{Dst: reg(), A: reg(), B: reg(), BIsImm: rng.Intn(3) == 0, ImmVal: rng.Int63n(50), Sub: rng.Intn(2) == 0}
	default: // both fields, often on one register
		w.Imm = &mcode.IUImm{Dst: reg(), Value: rng.Int63n(100)}
		w.Alu = &mcode.IUAlu{Dst: reg(), A: reg(), B: reg(), BIsImm: rng.Intn(2) == 0, ImmVal: rng.Int63n(9) - 4}
		if rng.Intn(2) == 0 {
			w.Alu.Dst = w.Imm.Dst
		}
	}
	for port := range w.Out {
		if rng.Intn(3) == 0 {
			w.Out[port] = &mcode.IUOut{FromTable: rng.Intn(4) == 0, Src: reg()}
		}
	}
	if rng.Intn(4) == 0 {
		s := &mcode.IUSig{LoopID: rng.Intn(3)}
		if rng.Intn(3) == 0 {
			s.Static, s.Continue = true, rng.Intn(2) == 0
		} else {
			// Decisions that flip inside the loop, at its end, or never.
			s.M = []int64{1, 1, 2, 3, 0, -1, -2}[rng.Intn(7)]
			s.Copy = rng.Int63n(3)
			s.CellTrips = max(s.M, 1)*rng.Int63n(trips+2) + rng.Int63n(3) - 1
		}
		w.Sig = s
	}
	return w
}

// findIULoop returns the loop with the given ID.
func findIULoop(items []mcode.IUItem, id int) *mcode.IULoop {
	for _, it := range items {
		if l, ok := it.(*mcode.IULoop); ok {
			if l.ID == id {
				return l
			}
			if in := findIULoop(l.Body, id); in != nil {
				return in
			}
		}
	}
	return nil
}

// measuredTransfer elaborates one pass over body from chosen register
// values and reads the registers back, recovering the pass's affine map:
// out[r] = c[r] + Σ a[r][s]·x_s.
func measuredTransfer(t *testing.T, body []mcode.IUItem) (c [mcode.IUNumRegs]int64, a [mcode.IUNumRegs][mcode.IUNumRegs]int64) {
	const unit = 1000
	run := func(x [mcode.IUNumRegs]int64) (out [mcode.IUNumRegs]int64) {
		var set, get []*mcode.IUInstr
		for r := range x {
			set = append(set, &mcode.IUInstr{Imm: &mcode.IUImm{Dst: mcode.IUReg(r), Value: x[r]}})
			read := &mcode.IUInstr{}
			read.Out[0] = &mcode.IUOut{Src: mcode.IUReg(r)}
			get = append(get, read)
		}
		prog := &mcode.IUProgram{Items: append(append([]mcode.IUItem{&mcode.IUStraight{Instrs: set}}, body...), &mcode.IUStraight{Instrs: get})}
		code, _ := mcode.DecodeIU(prog)
		tr, ok := code.Elaborate(nil, iuOracleCycles)
		if !ok {
			t.Fatal("loop body over the oracle's cycles")
		}
		for r := range out {
			out[r] = tr.Adr[len(tr.Adr)-mcode.IUNumRegs+r].Val
		}
		return out
	}
	c = run([mcode.IUNumRegs]int64{})
	for s := range a {
		var x [mcode.IUNumRegs]int64
		x[s] = unit
		out := run(x)
		for r := range a {
			a[r][s] = (out[r] - c[r]) / unit
		}
	}
	return c, a
}

func TestIUProofsQuickCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	proven, refused, outside, overRead, peeled := 0, 0, 0, 0, 0
	for iter := 0; iter < 2000; iter++ {
		// Most nests keep every product of trip counts small; one in two hundred
		// may hold a loop of 10⁶ trips.
		budget := int64(400)
		if iter%200 == 0 {
			budget = 1000000
		}
		id := 0
		prog := &mcode.IUProgram{Items: randIUItems(rng, 3, 1, budget, &id)}
		for n := rng.Intn(6); n > 0; n-- {
			prog.Table = append(prog.Table, rng.Int63n(mcode.MemWords+200)-100)
		}
		f, err := compareIU(prog)
		if err != nil {
			t.Fatalf("nest %d: %v\n%s", iter, err, prog.Listing())
		}
		if f.badLoop == nil {
			proven++
			if f.outside {
				outside++
			}
			if iu := decodeIU(prog); iu.reads > int64(len(prog.Table)) {
				overRead++
			}
			if f.peels > 0 {
				peeled++
			}
			continue
		}
		refused++
		l := findIULoop(prog.Items, f.badLoop.id)
		c, a := measuredTransfer(t, l.Body)
		r := f.badReg
		var kept uint16
		for s := range a {
			var unit [mcode.IUNumRegs]int64
			unit[s] = 1
			if a[s] == unit && c[s] == 0 {
				kept |= 1 << s
			}
		}
		var unit [mcode.IUNumRegs]int64
		unit[r] = 1
		translated := a[r] == unit
		reset := true
		for s, v := range a[r] {
			reset = reset && (v == 0 || kept>>s&1 != 0)
		}
		if translated || reset {
			t.Fatalf("nest %d: the fold refuses L%d over a%d, whose measured transfer %v is a translation or a reset (kept %b)\n%s",
				iter, l.ID, r, a[r], kept, prog.Listing())
		}
	}
	t.Logf("%d nests proven (%d with an address outside, %d over-reading, %d peeling a loop), %d refused", proven, outside, overRead, peeled, refused)
	if proven < 800 || refused < 200 || outside < 100 || overRead < 100 || peeled < 100 {
		t.Errorf("the generator is too weak")
	}
}

// TestSignalsRenderedWhenFormsDiffer: an IU that spells a cell nest's
// boundaries in straight code has another normal form than the nest
// (the loop's sequence is one node on the cell side), so the renderer
// decides — and accepts, the sequences being equal.
func TestSignalsRenderedWhenFormsDiffer(t *testing.T) {
	inner := &mcode.LoopItem{ID: 2, Trips: 1, Body: []mcode.CodeItem{straight(&mcode.Instr{})}}
	p := program(0, 0, &mcode.LoopItem{ID: 1, Trips: 2, Body: []mcode.CodeItem{inner, straight(&mcode.Instr{})}})
	sig := func(id int, more bool) *mcode.IUInstr {
		return &mcode.IUInstr{Sig: &mcode.IUSig{LoopID: id, Static: true, Continue: more}}
	}
	p.IU.Items = []mcode.IUItem{&mcode.IUStraight{Instrs: []*mcode.IUInstr{sig(2, false), sig(1, true), sig(2, false), sig(1, false)}}}
	rep, err := Verify(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rendered != 1 {
		t.Errorf("%d streams rendered, want the signals", rep.Rendered)
	}
}
