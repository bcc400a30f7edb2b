package verify

import (
	"fmt"

	"warp/internal/mcode"
)

// addr.go proves that every address the IU emits is the one the memory
// field popping it names, over the whole run, with no event enumerated.
// The cell side is the binding the fast executor runs — mcode.Decode's
// Mems and Terms — read into a tree of the memory fields and the loops
// that hold one; the IU side is the register fold's forms.  The fold's
// walk (iu.go) carries a cursor over the cell tree and compares each
// address with the next field's as it observes it.
//
// The counter map comes from the IU loops.  iugen mirrors a cell loop as
// an IU loop of M copies of the cell body, the remainder iterations
// peeled after it (§6.3.1), and the loop's dynamic signals carry M and
// the cell loop's ID.  Entering an IU loop of K trips, the cursor must
// stand at that cell loop, of at least K·M trips; the body is walked
// against cell iterations M·k … M·k+M−1 of the IU counter k and must use
// exactly those M passes, so by induction the loop emits the fields of
// iterations 0 … K·M−1 in order, and the cursor goes on concretely at
// iteration K·M.  A register address is compared as an affine form over
// the box of counter ranges the fold walks, a table address entry by
// entry (each entry is read once).  The map is only a hypothesis the
// walk checks: where it fails, or two forms differ, both streams are
// rendered event by event, which decides and names every address that
// differs.

// cellRef is one memory field and the address it is bound to: start +
// Σ Coef·iteration[Depth] over its loops.
type cellRef struct {
	start int64
	terms []mcode.LoopTerm
	word  int32 // its word in the decoded program
	port  uint8
}

// cellNode is a memory field, or a loop that holds one, whose body is
// the nodes after it up to end: the tree in preorder, in one slab.
type cellNode struct {
	ref   int32 // the field, or -1 for a loop
	end   int32
	id    int
	trips int64
}

// cellRefs is the decoded program's memory fields in issue order — the
// order cell 0 pops their addresses — in their loop tree, and [lo, hi),
// the words the fields are bound to.
type cellRefs struct {
	code   *mcode.Decoded
	refs   []cellRef
	nodes  []cellNode
	lo, hi int64
}

// newCellRefs reads the fields into their tree.  A loop's body runs from
// its Head word to the word that closes it, and d.Ends holds each loop
// after the loops inside it.
func newCellRefs(d *mcode.Decoded) *cellRefs {
	c := &cellRefs{code: d, refs: make([]cellRef, 0, len(d.Mems)), nodes: make([]cellNode, 0, len(d.Mems)+len(d.Ends)),
		lo: d.MemLo, hi: d.MemLo + int64(d.MemWords)}
	// first[w] is the outermost loop whose body starts at word w, inner[j]
	// the next one in from loop j, or -1; open holds the open loops' nodes.
	first, inner, open := make([]int32, len(d.Words)), make([]int32, len(d.Ends)), make([]int32, 0, d.Depth)
	for w := range first {
		first[w] = -1
	}
	for j := range d.Ends {
		h := d.Ends[j].Head
		first[h], inner[j] = int32(j), first[h]
	}
	for wi := range d.Words {
		w := &d.Words[wi]
		for j := first[wi]; j >= 0; j = inner[j] {
			open = append(open, int32(len(c.nodes)))
			c.nodes = append(c.nodes, cellNode{ref: -1, id: d.Ends[j].ID, trips: d.Ends[j].Trips})
		}
		for _, o := range d.Ops[w.Lo:w.Hi] {
			if o.Kind == mcode.OpLoad || o.Kind == mcode.OpStore {
				m := &d.Mems[o.X]
				c.nodes = append(c.nodes, cellNode{ref: int32(len(c.refs))})
				c.refs = append(c.refs, cellRef{start: d.MemLo + m.Start, terms: d.Terms[m.TermLo:m.TermHi], word: int32(wi), port: o.B})
			}
		}
		for range d.Ends[w.EndLo:w.EndHi] {
			l := open[len(open)-1]
			open = open[:len(open)-1]
			if c.nodes[l].end = int32(len(c.nodes)); c.nodes[l].end == l+1 {
				c.nodes = c.nodes[:l] // a loop with no field is no node
			}
		}
	}
	return c
}

// describe names a field: its instruction, its port and, when it names
// one, its symbolic address.
func (c *cellRefs) describe(p *mcode.CellProgram, r *cellRef) string {
	w := &c.code.Words[r.word]
	s := fmt.Sprintf("cell instruction %d port %d", w.PC+w.Skip, r.port)
	if a := p.MemAddr(w, int(r.port)); a.Sym != nil {
		s += " (" + a.String() + ")"
	}
	return s
}

// frame is the cursor's place in one body, nodes[i:end], and the
// iteration of the loop around it (node loop, or -1 at the top):
// iteration v, or — mapped, m > 0 — pass v of the m an IU iteration
// covers, iteration m·k + v of the counter at form index k.
type frame struct {
	i, end, loop int32
	v, m         int64
	k            int
}

// cursor walks the memory fields in issue order.
type cursor struct {
	refs  *cellRefs
	stack []frame
	steps int64
}

func (c *cursor) reset() {
	c.stack = append(make([]frame, 0, c.refs.code.Depth+1), frame{end: int32(len(c.refs.nodes)), loop: -1})
}

// body is the frame of a pass over loop l's body.
func (c *cursor) body(l int32, v, m int64, k int) frame {
	return frame{i: l + 1, end: c.refs.nodes[l].end, loop: l, v: v, m: m, k: k}
}

// advance moves to the next node, across the ends of passes and of loops
// run concretely; false at the program's end or at the end of a mapped
// frame's last pass.
func (c *cursor) advance() bool {
	for {
		c.steps++
		f := &c.stack[len(c.stack)-1]
		switch {
		case f.i < f.end:
			return true
		case f.loop < 0:
			return false
		case f.m > 0 && f.v+1 < f.m, f.m == 0 && f.v+1 < c.refs.nodes[f.loop].trips:
			f.v, f.i = f.v+1, f.loop+1
		case f.m > 0:
			return false
		default:
			c.stack = c.stack[:len(c.stack)-1]
			c.skip()
		}
	}
}

// skip moves the top frame past the loop at its place.
func (c *cursor) skip() {
	f := &c.stack[len(c.stack)-1]
	f.i = c.refs.nodes[f.i].end
}

// next returns the next field, entering the loops before it, or nil.
func (c *cursor) next() *cellRef {
	for c.advance() {
		f := &c.stack[len(c.stack)-1]
		if n := &c.refs.nodes[f.i]; n.ref < 0 {
			c.stack = append(c.stack, c.body(f.i, 0, 0, 0))
		} else {
			f.i++
			return &c.refs.refs[n.ref]
		}
	}
	return nil
}

// form writes r's address at the cursor into dst as a form over the
// counters: dst[0] alone, its value, when no frame is mapped.
func (c *cursor) form(r *cellRef, dst form) form {
	clear(dst)
	dst[0] = r.start
	for _, t := range r.terms {
		f := &c.stack[t.Depth+1]
		dst[0] += t.Coef * f.v
		if f.m > 0 {
			dst[f.k] += t.Coef * f.m
		}
	}
	return dst
}

// adrMatch is the address proof's state in one fold walk.
type adrMatch struct {
	cur   cursor
	table []int64
	reads form // the index of the next table read
	ok    bool // every address so far is its field's
	cell  form // scratch: a field's form
	point []int64
}

// loopMap maps an IU loop onto the cell loop at the cursor, m cell
// iterations an IU iteration; node −1 maps nothing.
type loopMap struct {
	node  int32 // the cell loop's, or -1
	base  int   // the cursor's depth at the loop
	m     int64
	per   int64 // table reads an IU iteration
	reads form  // the table-read index at the loop
}

// enter maps IU loop l by the ID and the M its dynamic signals carry.  A
// loop that emits no address maps nothing and leaves the cursor alone.
func (f *iuFold) enter(l *iuLoop) loopMap {
	a := f.adr
	if a == nil || !a.ok || !l.hasAdr {
		return loopMap{node: -1}
	}
	id, m := 0, int64(0)
	for _, it := range l.body {
		for _, w := range it.words {
			if s := w.Sig; s != nil && !s.Static {
				a.ok = a.ok && (m == 0 || s.LoopID == id && s.M == m)
				id, m = s.LoopID, s.M
			}
		}
	}
	if c := &a.cur; a.ok && m > 0 && c.advance() {
		i := c.stack[len(c.stack)-1].i
		if n := &c.refs.nodes[i]; n.ref < 0 && n.id == id && l.trips <= n.trips/m {
			return loopMap{node: i, base: len(c.stack), m: m, per: l.reads, reads: a.reads}
		}
	}
	a.ok = false
	return loopMap{node: -1}
}

// pass walks the loop's body, items, once over counter d, from pass 0 of
// the IU iteration, and checks that the walk used up its m passes.
func (f *iuFold) pass(lm *loopMap, d int, items []iuItem, regs *[mcode.IUNumRegs]form) {
	a := f.adr
	if lm.node >= 0 && a.ok {
		a.cur.stack = append(a.cur.stack[:lm.base], a.cur.body(lm.node, 0, lm.m, d+1))
		a.reads = f.moved(lm.reads, d+1, lm.per)
	}
	f.walk(items, regs)
	if lm.node >= 0 && a.ok {
		a.ok = !a.cur.advance() && len(a.cur.stack) == lm.base+1
	}
}

// exit leaves the cursor at the cell iteration after the loop's trips·m.
func (f *iuFold) exit(lm *loopMap, trips int64) {
	a := f.adr
	if lm.node < 0 || !a.ok {
		return
	}
	c := &a.cur
	c.stack = c.stack[:lm.base]
	if done := trips * lm.m; done < c.refs.nodes[lm.node].trips {
		c.stack = append(c.stack, c.body(lm.node, done, 0, 0))
	} else {
		c.skip()
	}
	a.reads = f.moved(lm.reads, 0, trips*lm.per)
}

// match compares the address an Out field emits — v, or the next table
// word — with the next field's, over the box.
func (f *iuFold) match(o *mcode.IUOut, v form) {
	a := f.adr
	if a == nil || !a.ok {
		return
	}
	r := a.cur.next()
	if r == nil {
		a.ok = false
		return
	}
	if n := len(f.box) + 1; cap(a.cell) < n {
		a.cell, a.point = make(form, n), make([]int64, n-1)
	}
	cell, lo, hi := a.cur.form(r, a.cell[:len(f.box)+1]), a.cur.refs.lo, a.cur.refs.hi
	if !o.FromTable {
		least, most, ok := extremes(v, f.box)
		a.ok = ok && sameOnBox(v, cell, f.box) && least >= lo && most < hi
		return
	}
	// Each point of the box is one read of its own entry.
	q, point := a.reads, a.point[:len(f.box)]
	a.reads = f.moved(q, 0, 1)
	for d, s := range f.box {
		point[d] = s.lo
	}
	for {
		i := eval(q, point)
		if i < 0 || i >= int64(len(a.table)) {
			a.ok = false
			return
		}
		if v := a.table[i]; v != eval(cell, point) || v < lo || v >= hi {
			a.ok = false
			return
		}
		d := len(point) - 1 // the next point, the innermost counter fastest
		for ; d >= 0 && point[d] == f.box[d].hi; d-- {
			point[d] = f.box[d].lo
		}
		if d < 0 {
			return
		}
		point[d]++
	}
}

// eval is v at a point of the box.
func eval(v form, point []int64) int64 {
	x := v[0]
	for d, a := range v[1:] {
		x += a * point[d]
	}
	return x
}

// sameOnBox reports whether forms a and b agree at every point of the
// box: the same coefficients but for counters the box fixes to one
// value, whose terms fold into the constant.
func sameOnBox(a, b form, box []span) bool {
	c := coef(a, 0) - coef(b, 0)
	for d, s := range box {
		x := coef(a, d+1) - coef(b, d+1)
		if x != 0 && s.lo != s.hi {
			return false
		}
		c += x * s.lo
	}
	return c == 0
}

func coef(v form, d int) int64 {
	if d < len(v) {
		return v[d]
	}
	return 0
}

// checkAddrValues proves every address the IU emits is the one its
// memory field is bound to and within the words the fields are bound to.
// The fold has walked with m — nil when the stream's count or table reads
// already failed — and found every address in the cell memory.  A field
// whose binding did not resolve fails outright; only a failed structural
// proof enumerates, to name each address that differs.
func checkAddrValues(p Program, iu *iuCode, cells *cellRefs, m *adrMatch, rep *Report, col *collector) {
	switch {
	case cells.code.Unbound != nil:
		col.add(Diagnostic{Invariant: InvAddrValue, Cell: -1, Instr: -1, Loop: -1,
			Detail: fmt.Sprintf("a memory field's address %v", cells.code.Unbound)})
		return
	case m == nil:
		return
	case m.ok:
		col.ok()
		return
	case iu.adrs > enumEventLimit:
		unrendered(col, "IU address values", iu.adrs)
		return
	}
	rep.Rendered++
	c, ok := cursor{refs: cells}, true
	c.reset()
	var val [1]int64
	for i, a := range renderAdrs(iu, p.IU.Table) {
		r := c.next()
		want := c.form(r, val[:])[0]
		if a.Val == want && a.Val >= cells.lo && a.Val < cells.hi {
			continue
		}
		ok = false
		if len(col.diags) >= maxDiags {
			col.dropped++ // naming the field walks the program: not for a suppressed one
			continue
		}
		detail := fmt.Sprintf("address %d: the IU sends %d at cycle %d where %s names %d", i, a.Val, a.At, cells.describe(p.Cell, r), want)
		if a.Val == want {
			detail = fmt.Sprintf("address %d: the IU sends %d at cycle %d for %s, outside the %d words from %d the memory fields are bound to",
				i, a.Val, a.At, cells.describe(p.Cell, r), cells.hi-cells.lo, cells.lo)
		}
		col.add(Diagnostic{Invariant: InvAddrValue, Cell: -1, Instr: a.PC, Loop: -1, Detail: detail})
	}
	if ok {
		col.ok()
	}
}
