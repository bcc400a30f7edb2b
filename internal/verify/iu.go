package verify

import (
	"warp/internal/mcode"
	"warp/internal/skew"
)

// iu.go proves the IU's value streams — the addresses it emits, the table
// words it reads, the loop decisions it signals — from the IU loop tree,
// without running the IU.
//
// The register fold.  The IU's arithmetic is input-independent (an
// immediate field, one adder, a sequential table), so inside the loops
// enclosing an instruction every register is an affine form in their
// iteration counters, c + Σ a_d·i_d, exactly: Imm makes a constant, Alu
// adds or subtracts two forms or a form and an immediate, and the rules
// are mcode.IUCode.Elaborate's (a write lands for the next instruction,
// the adder wins a tie with the immediate, loops are do-while).  What
// closes the forms over a loop is its summary: one iteration of the body,
// run symbolically from unknown start values x, leaves each register
// affine in x (a row), and iugen's loops either translate a register by a
// constant (x_r + c: a strength-reduced induction) or reset it to a value
// of registers the loop keeps (c + Σ a_s·x_s).  At iteration k a
// translated register reads x_r + k·c, and a reset one x_r at k = 0 and
// its reset value after — so a loop whose body reads a reset register
// that does not already hold its reset value on entry is walked twice,
// for iteration 0 and for iterations 1…T−1; any other loop once, with its
// counter as a variable.  A loop that does anything else to a register is
// refused as unproven, naming both; iugen never emits one.  An address is
// in the cell memory iff the extreme points of its form over the box of
// counter ranges are.  Table words are read in program order, so their
// count and the first over-read come off the emission tree of table
// outputs in closed form.
//
// The signal proof is in sigform.go, and the proof that each address is
// the one its memory field names rides the fold's walk (addr.go).
// Enumeration survives only as the diagnostic renderer (iuRender): it
// runs once a structural check has failed, to name every offending event
// as the elaborating verifier did, and never past enumEventLimit events.

// iuItem is one element of the decoded IU loop tree: a straight run of
// words, or a loop.
type iuItem struct {
	at    int64            // first cycle, relative to the enclosing body
	pc    int              // µPC of words[0] (listing order, mcode.DecodeIU's numbering)
	words []*mcode.IUInstr // nil for a loop
	loop  *iuLoop
}

// iuLoop is one loop of the decoded IU tree and what the proofs derive
// for it.
type iuLoop struct {
	id      int
	trips   int64 // iterations run: loops are do-while, so at least one
	iterLen int64
	body    []iuItem
	// Whether the body emits any address or signal, and how many table
	// words one iteration reads.
	hasAdr, hasSig bool
	reads          int64
	sum            transfer // one iteration's effect on the registers (summarize)
	sigs           []sigRun // the loop's signal sequence (sigForms.iuLoop)
}

// iuCode is the decoded IU program: its loop tree, and the emission trees
// the queue proofs read — addresses, signals and table reads — sealed,
// with their totals.
type iuCode struct {
	items             []iuItem
	adr, sig, tbl     []skew.Node
	adrs, sigs, reads int64
}

// decodeIU reads the IU program into its loop tree and emission trees:
// an Out or Sig field fires every time its word executes, so the
// positions are as static as the cell's.  A loop with no word in its body
// emits nothing and takes no time; like mcode.DecodeIU it is left out.
func decodeIU(p *mcode.IUProgram) *iuCode {
	// A body folds to its items and its emission trees: addresses,
	// signals, table reads.
	type tree struct {
		body  []iuItem
		out   [3][]skew.Node
		reads int64
	}
	t, _ := mcode.Fold(p.Items, &tree{}, func(t *tree, in *mcode.IUInstr, s *mcode.IUSite) *tree {
		if s.Index == 0 {
			t.body = append(t.body, iuItem{at: s.At, pc: s.PC, words: s.Block.Instrs})
		}
		var emits [3]int // addresses, signals, table reads
		for _, o := range in.Out {
			if o != nil {
				emits[0]++
				if o.FromTable {
					emits[2]++
				}
			}
		}
		if in.Sig != nil {
			emits[1]++
		}
		t.reads += int64(emits[2])
		for k, n := range emits {
			if n > 0 {
				t.out[k] = append(t.out[k], skew.Node{At: s.At, Instr: s.PC, Send: n})
			}
		}
		return t
	}, func(*tree, *mcode.IULoop, *mcode.IUSite) *tree { return &tree{} },
		func(t *tree, l *mcode.IULoop, s *mcode.IUSite, n int64, inner *tree) *tree {
			if n == 0 {
				return t
			}
			il := &iuLoop{id: l.ID, trips: max(l.Trips, 1), iterLen: n, body: inner.body,
				hasAdr: len(inner.out[0]) > 0, hasSig: len(inner.out[1]) > 0, reads: inner.reads}
			t.body = append(t.body, iuItem{at: s.At, loop: il})
			t.reads += il.reads * il.trips
			for k, b := range &inner.out {
				if len(b) > 0 {
					t.out[k] = append(t.out[k], skew.Node{At: s.At, Loop: &skew.Nest{Trips: il.trips, IterLen: n, Body: b}})
				}
			}
			return t
		})
	c := &iuCode{items: t.body, adr: t.out[0], sig: t.out[1], tbl: t.out[2]}
	c.adrs, _ = skew.Seal(c.adr)
	c.sigs, _ = skew.Seal(c.sig)
	c.reads, _ = skew.Seal(c.tbl)
	return c
}

// nth returns the cycle and instruction of the k-th (from 0) send of a
// sealed stream holding more than k.
func nth(body []skew.Node, k int64) (at int64, instr int) {
descend:
	for {
		for i := range body {
			n := &body[i]
			l := n.Loop
			if l == nil {
				if k < int64(n.Send) {
					return at + n.At, n.Instr
				}
				k -= int64(n.Send)
				continue
			}
			per, _ := skew.Count(l.Body, skew.Forever)
			if k < per*l.Trips {
				at += n.At + k/per*l.IterLen
				body, k = l.Body, k%per
				continue descend
			}
			k -= per * l.Trips
		}
		return -1, -1
	}
}

// ---------------------------------------------------------------------
// Loop summaries.

// row is a register's value part-way through a loop body as an affine
// function of the registers at the body's start: c + Σ a[s]·x_s.
type row struct {
	c int64
	a [mcode.IUNumRegs]int64
}

func unitRow(r int) row {
	var w row
	w.a[r] = 1
	return w
}

// support is the set of start registers the row depends on.
func (w *row) support() uint16 {
	var s uint16
	for r, a := range w.a {
		if a != 0 {
			s |= 1 << r
		}
	}
	return s
}

// addScaled adds k·v to w.
func (w *row) addScaled(v *row, k int64) {
	w.c += k * v.c
	for r, a := range v.a {
		w.a[r] += k * a
	}
}

// resetRow is a register a loop body resets, and the value it leaves.
type resetRow struct {
	reg int
	val row
}

// transfer is one iteration of a loop body: each register is translated
// by step (its bit in reset clear; a zero step keeps it) or reset to a
// value of kept registers.
type transfer struct {
	reset uint16
	step  [mcode.IUNumRegs]int64
	to    []resetRow
	// bodyReads are the registers whose value at the start of an iteration
	// an address output of that iteration reads; reads the same over the
	// whole loop — after iteration 0 a reset register reads the kept
	// registers its reset value is made of.
	bodyReads, reads uint16
}

// applyRows moves m, rows over an enclosing body's start, past trips
// iterations of the loop.  Reset values read only kept registers, which
// no step moves.
func (t *transfer) applyRows(m *[mcode.IUNumRegs]row, trips int64) {
	for _, rr := range t.to {
		v := row{c: rr.val.c}
		for s, a := range rr.val.a {
			if a != 0 {
				v.addScaled(&m[s], a)
			}
		}
		m[rr.reg] = v
	}
	for r := range m {
		if t.reset>>r&1 == 0 {
			m[r].c += trips * t.step[r]
		}
	}
}

// applyValues is applyRows on concrete register values.
func (t *transfer) applyValues(regs *[mcode.IUNumRegs]int64, trips int64) {
	for _, rr := range t.to {
		v := rr.val.c
		for s, a := range rr.val.a {
			v += a * regs[s]
		}
		regs[rr.reg] = v
	}
	for r := range regs {
		if t.reset>>r&1 == 0 {
			regs[r] += trips * t.step[r]
		}
	}
}

// iuFold is one run of the register fold over a decoded IU program.
type iuFold struct {
	// steps counts the loops and the words with a register or address
	// field the fold looked at: it depends on the loop structure, not on
	// trip counts.
	steps int64
	// badLoop and badReg name the first loop whose body neither
	// translates nor resets a register.
	badLoop *iuLoop
	badReg  int
	// box holds the counter range of every loop enclosing the walk, in
	// the context being walked.
	box []span
	// outside is set once an address form may leave the cell memory.
	outside bool
	// peels counts the loops walked twice, iteration 0 apart.
	peels int
	// fields, when not nil, collects each register-sourced Out field's
	// extremes, keyed by µPC·MemPorts + port (the differential test).
	fields map[int]span
	// adr, when not nil, compares each address with the memory field that
	// pops it as the walk observes it (addr.go).
	adr   *adrMatch
	arena []int64
}

type span struct{ lo, hi int64 }

// summarize derives l's transfer and, first, every inner loop's.  It
// returns false (with badLoop set) when one of them is neither a
// translation nor a reset in some register.
func (f *iuFold) summarize(l *iuLoop) bool {
	var m [mcode.IUNumRegs]row
	for r := range m {
		m[r] = unitRow(r)
	}
	var reads uint16
	if !f.rows(l.body, &m, &reads) {
		return false
	}
	var kept uint16
	for r := range m {
		if m[r] == unitRow(r) {
			kept |= 1 << r
		}
	}
	t := &l.sum
	for r := range m {
		switch unit := unitRow(r); {
		case m[r].a == unit.a:
			t.step[r] = m[r].c
		case m[r].support()&^kept == 0:
			t.reset |= 1 << r
			t.to = append(t.to, resetRow{reg: r, val: m[r]})
		default:
			f.badLoop, f.badReg = l, r
			return false
		}
	}
	t.bodyReads, t.reads = reads, reads
	for _, rr := range t.to {
		if reads>>rr.reg&1 != 0 {
			t.reads |= rr.val.support()
		}
	}
	return true
}

// rows runs items symbolically over m, adding to reads the start
// registers an address output reads.
func (f *iuFold) rows(items []iuItem, m *[mcode.IUNumRegs]row, reads *uint16) bool {
	for _, it := range items {
		if l := it.loop; l != nil {
			f.steps++
			if !f.summarize(l) {
				return false
			}
			for s := range m {
				if l.sum.reads>>s&1 != 0 {
					*reads |= m[s].support()
				}
			}
			l.sum.applyRows(m, l.trips)
			continue
		}
		for _, w := range it.words {
			if inert(w) {
				continue
			}
			f.steps++
			for _, o := range w.Out {
				if o != nil && !o.FromTable {
					*reads |= m[o.Src].support()
				}
			}
			var sum row
			if a := w.Alu; a != nil {
				sum = m[a.A]
				b := row{c: a.ImmVal}
				if !a.BIsImm {
					b = m[a.B]
				}
				sum.addScaled(&b, sign(a.Sub))
			}
			if w.Imm != nil {
				m[w.Imm.Dst] = row{c: w.Imm.Value}
			}
			if w.Alu != nil {
				m[w.Alu.Dst] = sum
			}
		}
	}
	return true
}

// inert reports whether a word leaves the registers and the address
// stream alone (counter work does not touch the register machine).
func inert(w *mcode.IUInstr) bool {
	return w.Alu == nil && w.Imm == nil && w.Out == [mcode.MemPorts]*mcode.IUOut{}
}

func sign(sub bool) int64 {
	if sub {
		return -1
	}
	return 1
}

// ---------------------------------------------------------------------
// The forward walk.

// form is a register's value as an affine function of the enclosing
// loops' counters: form[0] + Σ form[d+1]·i_d, outermost loop first;
// missing coefficients are zero.  Forms are never modified once built.
type form []int64

// alloc returns n zeroed coefficients from the fold's arena.
func (f *iuFold) alloc(n int) form {
	if len(f.arena)+n > cap(f.arena) {
		f.arena = make([]int64, 0, max(256, 2*cap(f.arena), n))
	}
	f.arena = f.arena[:len(f.arena)+n]
	return form(f.arena[len(f.arena)-n : len(f.arena) : len(f.arena)])
}

func (f *iuFold) constant(v int64) form {
	c := f.alloc(1)
	c[0] = v
	return c
}

// combine returns a + k·b.
func (f *iuFold) combine(a, b form, k int64) form {
	c := f.alloc(max(len(a), len(b)))
	copy(c, a)
	for d, v := range b {
		c[d] += k * v
	}
	return c
}

// moved returns a with k added to coefficient d (0: the constant).
func (f *iuFold) moved(a form, d int, k int64) form {
	if k == 0 {
		return a
	}
	c := f.alloc(max(len(a), d+1))
	copy(c, a)
	c[d] += k
	return c
}

func equalForms(a, b form) bool {
	if len(a) < len(b) {
		a, b = b, a
	}
	for d, v := range a {
		if d < len(b) && b[d] != v || d >= len(b) && v != 0 {
			return false
		}
	}
	return true
}

// prove folds the whole program: every loop summarized, every address
// form bounded.  false when a loop could not be summarized.
func (f *iuFold) prove(c *iuCode) bool {
	var m [mcode.IUNumRegs]row
	var reads uint16
	if !f.rows(c.items, &m, &reads) {
		return false
	}
	var regs [mcode.IUNumRegs]form
	zero := f.constant(0)
	for r := range regs {
		regs[r] = zero
	}
	if a := f.adr; a != nil {
		a.cur.reset()
		a.reads = zero
	}
	f.walk(c.items, &regs)
	if a := f.adr; a != nil && a.ok {
		a.ok = a.cur.next() == nil // every field popped an address
	}
	return true
}

// walk runs items over regs, forms over the counters of f.box.
func (f *iuFold) walk(items []iuItem, regs *[mcode.IUNumRegs]form) {
	for _, it := range items {
		if it.loop != nil {
			f.loop(it.loop, regs)
			continue
		}
		for j, w := range it.words {
			if inert(w) {
				continue
			}
			f.steps++
			for port, o := range w.Out {
				if o == nil {
					continue
				}
				if !o.FromTable {
					f.observe(it.pc+j, port, regs[o.Src])
				}
				f.match(o, regs[o.Src])
			}
			var sum form
			if a := w.Alu; a != nil {
				if a.BIsImm {
					sum = f.moved(regs[a.A], 0, sign(a.Sub)*a.ImmVal)
				} else {
					sum = f.combine(regs[a.A], regs[a.B], sign(a.Sub))
				}
			}
			if w.Imm != nil {
				regs[w.Imm.Dst] = f.constant(w.Imm.Value)
			}
			if w.Alu != nil {
				regs[w.Alu.Dst] = sum
			}
		}
	}
}

// loop walks l's body once per uniform stretch of its iterations and
// leaves regs as the loop does.
func (f *iuFold) loop(l *iuLoop, regs *[mcode.IUNumRegs]form) {
	f.steps++
	t := &l.sum
	entry := *regs
	var reset [mcode.IUNumRegs]form
	peel := false
	for _, rr := range t.to {
		v := f.constant(rr.val.c)
		for s, a := range rr.val.a {
			if a != 0 {
				v = f.combine(v, entry[s], a)
			}
		}
		reset[rr.reg] = v
		peel = peel || t.bodyReads>>rr.reg&1 != 0 && !equalForms(v, entry[rr.reg])
	}
	d := len(f.box)
	lm := f.enter(l)
	from := int64(0)
	if peel {
		f.peels++
		f.box = append(f.box, span{0, 0})
		f.pass(&lm, d, l.body, regs)
		f.box = f.box[:d]
		from = 1
	}
	if from < l.trips {
		for r := range regs {
			switch {
			case t.reset>>r&1 == 0:
				regs[r] = f.moved(entry[r], d+1, t.step[r])
			case peel:
				regs[r] = reset[r]
			default:
				regs[r] = entry[r]
			}
		}
		f.box = append(f.box, span{from, l.trips - 1})
		f.pass(&lm, d, l.body, regs)
		f.box = f.box[:d]
	}
	f.exit(&lm, l.trips)
	for r := range regs {
		if t.reset>>r&1 != 0 {
			regs[r] = reset[r]
		} else {
			regs[r] = f.moved(entry[r], 0, l.trips*t.step[r])
		}
	}
}

// observe bounds one address form over the current counter box.
func (f *iuFold) observe(pc, port int, v form) {
	lo, hi, ok := extremes(v, f.box)
	if !ok || lo < 0 || hi >= mcode.MemWords {
		f.outside = true
	}
	if f.fields != nil {
		k := pc*mcode.MemPorts + port
		if s, seen := f.fields[k]; seen {
			lo, hi = min(lo, s.lo), max(hi, s.hi)
		}
		f.fields[k] = span{lo, hi}
	}
}

// extremes returns the least and the greatest value of v over the box;
// ok is false when one of them does not fit an int64.
func extremes(v form, box []span) (lo, hi int64, ok bool) {
	lo, hi = v[0], v[0]
	for d, a := range v[1:] {
		if a == 0 {
			continue
		}
		x, ok1 := mcode.MulOK(a, box[d].lo)
		y, ok2 := mcode.MulOK(a, box[d].hi)
		if x > y {
			x, y = y, x
		}
		var ok3, ok4 bool
		lo, ok3 = mcode.AddOK(lo, x)
		hi, ok4 = mcode.AddOK(hi, y)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return 0, 0, false
		}
	}
	return lo, hi, true
}

// tableInRange reports whether the table words a run of reads table
// reads lie in the cell memory; over-reads yield 0.
func tableInRange(table []int64, reads int64) bool {
	for _, v := range table[:min(reads, int64(len(table)))] {
		if v < 0 || v >= mcode.MemWords {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// The diagnostic renderer.

// iuRender enumerates the IU's address events (adr) or its signal events
// in time order, as mcode.IUCode.Elaborate would emit them.  Loops that
// emit none of the kind are stepped over in one move — by their transfer,
// for addresses, which needs the fold to have summarized every loop — so
// the work follows the events rendered, not the IU's cycles.
type iuRender struct {
	table []int64
	adr   bool
	regs  [mcode.IUNumRegs]int64
	reads int64
	adrs  []mcode.AdrEvent
	sigs  []mcode.SigEvent
}

func (r *iuRender) items(items []iuItem, base, iter int64) {
	for _, it := range items {
		at := base + it.at
		if l := it.loop; l != nil {
			switch {
			case r.adr && l.hasAdr || !r.adr && l.hasSig:
				for k := int64(0); k < l.trips; k++ {
					r.items(l.body, at+k*l.iterLen, k)
				}
			case r.adr:
				l.sum.applyValues(&r.regs, l.trips)
			}
			continue
		}
		for j, w := range it.words {
			t, pc := at+int64(j), it.pc+j
			if !r.adr {
				if s := w.Sig; s != nil {
					r.sigs = append(r.sigs, mcode.SigEvent{ID: s.LoopID, More: decide(s, iter), At: t, PC: pc})
				}
				continue
			}
			for _, o := range w.Out {
				if o == nil {
					continue
				}
				v := r.regs[o.Src]
				if o.FromTable {
					v = 0
					if r.reads < int64(len(r.table)) {
						v = r.table[r.reads]
					}
					r.reads++
				}
				r.adrs = append(r.adrs, mcode.AdrEvent{Val: v, At: t, PC: pc})
			}
			var sum int64
			if a := w.Alu; a != nil {
				b := a.ImmVal
				if !a.BIsImm {
					b = r.regs[a.B]
				}
				sum = r.regs[a.A] + sign(a.Sub)*b
			}
			if w.Imm != nil {
				r.regs[w.Imm.Dst] = w.Imm.Value
			}
			if w.Alu != nil {
				r.regs[w.Alu.Dst] = sum
			}
		}
	}
}

// decide is a signal's loop decision at iteration iter of its innermost
// enclosing IU loop (§6.3.1: cell iteration iter·M + Copy of CellTrips).
func decide(s *mcode.IUSig, iter int64) bool {
	if s.Static {
		return s.Continue
	}
	return iter*s.M+s.Copy < s.CellTrips-1
}

// renderAdrs and renderSigs enumerate one stream of the program; the
// caller has checked its length against enumEventLimit.
func renderAdrs(c *iuCode, table []int64) []mcode.AdrEvent {
	r := &iuRender{table: table, adr: true, adrs: make([]mcode.AdrEvent, 0, c.adrs)}
	r.items(c.items, 0, 0)
	return r.adrs
}

func renderSigs(c *iuCode) []mcode.SigEvent {
	r := &iuRender{sigs: make([]mcode.SigEvent, 0, c.sigs)}
	r.items(c.items, 0, 0)
	return r.sigs
}
