// Package iugen generates the interface unit's microprogram from the
// scheduled cell program (§6.3).
//
// The IU and the cells logically operate in lock step: the generated IU
// program mirrors the cell program's loop structure cycle for cycle, so
// that an address emitted at IU cycle t is in the first cell's Adr
// queue exactly when the cell's memory reference at cell cycle t pops
// it (the compiler "utilizes the freedom to get ahead only inside a
// basic block", §6.3).
//
// Within that frame the generator faces the paper's §6.3.2 constraints:
//
//   - addresses are formed by additions only (strength reduction turns
//     each affine address into an induction register with one add per
//     loop boundary);
//   - only 16 registers and no memory: one register per address
//     expression, or the expression is spilled to the 32K-word
//     sequential table;
//   - the loop counter costs three adder cycles per iteration, reserved
//     in every IU loop body, and the per-iteration termination signal
//     carries the counter test (§6.3.1);
//   - loops whose body is too short for the counter work (and one
//     induction update per address expression) are unrolled following
//     §6.3.1 ("unrolling the last k iterations ... solves this
//     problem"): the body is replicated m times and the remainder
//     iterations are peeled straight-line with static signals.
package iugen

import (
	"fmt"
	"slices"

	"warp/internal/mcode"
	"warp/internal/w2"
)

// Result is the generated IU program plus statistics for reporting.
type Result struct {
	IU *mcode.IUProgram
	// Prologue is the number of cycles the IU executes before the
	// mirrored main program: register initializations.  Cell 0 must
	// start Prologue+1 cycles after the IU.
	Prologue int64
	// AddrRegs is the peak number of simultaneously live IU registers
	// bound to address expressions (registers are scoped to top-level
	// regions and reused across them).
	AddrRegs int
	// Spilled is the number of address expressions moved to the table.
	Spilled int
	// TableEntries is the number of pre-stored table words.
	TableEntries int
}

// iuBody is one loop body (or the top level) of the IU program under
// construction.
type iuBody struct {
	parent        *iuBody
	depth         int // nesting depth: 0 at top level
	idx           int // creation order: 0 at top level
	startInParent int64
	loop          *mcode.IULoop // nil at top level
	cellLoop      *mcode.LoopItem
	m             int64 // cell iterations per IU iteration (unroll factor)
	items         []mcode.IUItem
	length        int64
	segs          []*segment // straight segments, in order
	epoch         int        // segOrder index when the enclosing top-level item began
}

// segment is one straight run of IU instructions within a body.
type segment struct {
	owner *iuBody
	start int64             // cycle offset within owner
	block *mcode.IUStraight // the run's instructions
	idx   int               // position in genState.segOrder (static program order)
	// taken marks the instructions holding a tentatively placed update
	// (plan.go), one flag per instruction.
	taken []bool
}

// term is one induction component of an address expression.
type term struct {
	body   *iuBody // the IU loop the induction steps with
	stride int64   // address increment per cell iteration
}

// site is one address consumption point.
type site struct {
	seg    *segment
	cycle  int64 // within seg.block.Instrs
	slot   int
	constV int64
	terms  []siteTerm // outermost first
	seq    int        // static discovery order: the site's index in genState.sites
	e      *expr      // the expression the site belongs to
}

// siteTerm records the expression's dependence on one loop, including
// the site's static sub-iteration offset (unrolled copy index or peeled
// absolute iteration).
type siteTerm struct {
	term
	copyIdx int64
}

// expr is one address expression: a group of sites sharing an induction
// register or a run of table entries.
type expr struct {
	sites    []*site // in seq order
	constV   int64
	terms    []term // outermost first
	spilled  bool
	reg      mcode.IUReg
	dynCount int64
	// initBias compensates pre-placed updates (see plan.go): the
	// register is initialized to constV+initBias so the first
	// iteration's uses still see constV.
	initBias int64
	// updates are the strength-reduction adds tentatively placed for
	// the register (plan.go).
	updates []update
	// alias is the index of the next expression grouped under the same
	// key, -1 for none.
	alias int
}

type genState struct {
	top   *iuBody
	sites []site
	// termBuf backs every site's terms, each site a capped window of it.
	termBuf []siteTerm
	bodies  int // iuBodies created, top level included
	loopID  int
	// cellStack tracks enclosing cell loops during mirroring with the
	// current static iteration info.
	cellStack []stackEntry
	err       error
	// segOrder lists every straight segment in static program order;
	// epoch boundaries index into it (see plan.go's scoped register
	// allocation).
	segOrder []*segment
	// curEpoch is the segOrder length when the current top-level item
	// began; bodies record it so expressions can be scoped to their
	// top-level region.  depth guards against peeled top-level loop
	// copies (which mirror back into the top body) resetting it.
	// epochMarks records every region boundary, for liveness windows.
	curEpoch   int
	depth      int
	epochMarks []int
}

type stackEntry struct {
	cellLoop *mcode.LoopItem
	body     *iuBody // IU loop body stepping this cell loop (nil if peeled)
	copyIdx  int64   // static sub-iteration offset (copy index / absolute peeled iteration)
	m        int64
}

// Generate builds the IU program for a cell program.
func Generate(cell *mcode.CellProgram) (*Result, error) {
	if _, err := mcode.CountCell(cell); err != nil { // refused here, before mirrorLoop's cycles would wrap
		return nil, fmt.Errorf("iugen: %w", err)
	}
	g := &genState{top: &iuBody{m: 1}, bodies: 1}
	g.mirrorItems(cell.Items, g.top)
	if g.err != nil {
		return nil, g.err
	}
	// A table the mirrored sites already overfill is refused before any
	// expression is grouped or planned: planExprs would refuse it anyway.
	if g.tableBound() > mcode.TableWords {
		return nil, errTableFull
	}
	exprs := g.groupExprs()
	prologue, maxRegs, err := g.planExprs(exprs)
	if err != nil {
		return nil, err
	}
	table, err := g.buildTable(exprs)
	if err != nil {
		return nil, err
	}
	g.emitOuts()

	prog := &mcode.IUProgram{Table: table}
	if len(prologue) > 0 {
		prog.Items = append(prog.Items, &mcode.IUStraight{Instrs: prologue})
	}
	prog.Items = append(prog.Items, g.top.items...)
	if _, err := mcode.CountIU(prog); err != nil {
		return nil, fmt.Errorf("iugen: %w", err)
	}

	spilled := 0
	for _, e := range exprs {
		if e.spilled {
			spilled++
		}
	}
	return &Result{
		IU:           prog,
		Prologue:     int64(len(prologue)),
		AddrRegs:     maxRegs,
		Spilled:      spilled,
		TableEntries: len(table),
	}, nil
}

// ---------------------------------------------------------------------
// Phase A: mirror the cell program structure.

func (g *genState) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("iugen: "+format, args...)
	}
}

// mirrorItems mirrors a cell item list into body, returning nothing;
// body.items/segs/length are extended.  At the top level each item
// starts a new epoch: the scoped register allocator reuses IU registers
// across top-level regions.
func (g *genState) mirrorItems(items []mcode.CodeItem, body *iuBody) {
	g.depth++
	defer func() { g.depth-- }()
	for _, it := range items {
		if g.err != nil {
			return
		}
		if body == g.top && g.depth == 1 {
			g.curEpoch = len(g.segOrder)
			g.epochMarks = append(g.epochMarks, g.curEpoch)
		}
		switch it := it.(type) {
		case *mcode.Straight:
			g.mirrorStraight(it, body)
		case *mcode.LoopItem:
			g.mirrorLoop(it, body)
		}
	}
}

// curSegment returns the trailing straight segment of body, creating
// one if the body ends with a loop (or is empty).
func (g *genState) curSegment(body *iuBody) *segment {
	if n := len(body.segs); n > 0 {
		s := body.segs[n-1]
		if s.start+int64(len(s.block.Instrs)) == body.length {
			return s
		}
	}
	blk := &mcode.IUStraight{}
	s := &segment{owner: body, start: body.length, block: blk, idx: len(g.segOrder)}
	body.segs = append(body.segs, s)
	body.items = append(body.items, blk)
	g.segOrder = append(g.segOrder, s)
	return s
}

// extend appends n cycles to body's trailing straight segment, the
// instructions taken from one slab.
func (g *genState) extend(body *iuBody, n int64) *segment {
	s := g.curSegment(body)
	slab := make([]mcode.IUInstr, n)
	s.block.Instrs = slices.Grow(s.block.Instrs, len(slab))
	for i := range slab {
		s.block.Instrs = append(s.block.Instrs, &slab[i])
	}
	body.length += n
	return s
}

// mirrorStraight creates matching IU cycles and records address sites.
func (g *genState) mirrorStraight(st *mcode.Straight, body *iuBody) {
	seg := g.extend(body, int64(len(st.Instrs)))
	base := int64(len(seg.block.Instrs)) - int64(len(st.Instrs))
	for i, in := range st.Instrs {
		for slot := range in.Mem {
			if m := &in.Mem[slot]; m.Kind != mcode.MemNone {
				g.addSite(seg, base+int64(i), slot, m.Addr)
			}
		}
	}
}

// addSite folds a cell address into IU-structure terms.
func (g *genState) addSite(seg *segment, cycle int64, slot int, a mcode.AddrInfo) {
	aff := a.Shifted()
	s := site{seg: seg, cycle: cycle, slot: slot, seq: len(g.sites), constV: int64(a.Base) + aff.Const}
	lo := len(g.termBuf)
	for _, t := range aff.Terms {
		entry := g.findStack(t.Var)
		if entry == nil {
			g.fail("address %s references loop %s outside its scope", a, t.Var.Var)
			return
		}
		cellStride := t.Coef * entry.cellLoop.Step
		s.constV += t.Coef * entry.cellLoop.First
		if entry.body == nil {
			// Peeled region: iteration is static.
			s.constV += cellStride * entry.copyIdx
			continue
		}
		// Insertion by depth keeps the terms outermost first.
		st := siteTerm{term: term{body: entry.body, stride: cellStride}, copyIdx: entry.copyIdx}
		i := len(g.termBuf)
		g.termBuf = append(g.termBuf, st)
		for ; i > lo && g.termBuf[i-1].body.depth > st.body.depth; i-- {
			g.termBuf[i] = g.termBuf[i-1]
		}
		g.termBuf[i] = st
	}
	// Capped, so no later site's terms land in this window; a growth of
	// the buffer leaves the window on the old array, intact.
	s.terms = g.termBuf[lo:len(g.termBuf):len(g.termBuf)]
	g.sites = append(g.sites, s)
}

func (g *genState) findStack(loop *w2.ForStmt) *stackEntry {
	for i := len(g.cellStack) - 1; i >= 0; i-- {
		if g.cellStack[i].cellLoop.Src == loop {
			return &g.cellStack[i]
		}
	}
	return nil
}

// mirrorLoop mirrors one cell loop.  Bodies of at least the three
// counter-work cycles become one IU loop with the full trip count and a
// per-iteration dynamic termination signal.  Shorter straight-line
// bodies are unrolled by m = ceil(3/bodyLen) (§6.3.1), with the
// remainder iterations peeled straight-line and their signals static.
func (g *genState) mirrorLoop(cl *mcode.LoopItem, body *iuBody) {
	bodyLen := mcode.Cycles(cl.Body) // CountCell has refused a program whose count overflows
	if bodyLen == 0 {
		g.fail("loop L%d has an empty body", cl.ID)
		return
	}
	trips := cl.Trips
	m := int64(1)
	if bodyLen < mcode.LoopOverheadCycles {
		if mcode.HoldsLoop(cl.Body) {
			g.fail("loop L%d: body of %d cycles contains inner loops; the IU cannot pace it", cl.ID, bodyLen)
			return
		}
		// Unroll so that the counter work AND one induction update per
		// distinct address expression per copy fit the adder budget:
		// m·bodyLen ≥ 3 + m·E, i.e. m ≥ 3/(bodyLen−E).  When a copy has
		// no adder slack (E ≥ bodyLen), keep the minimum unroll and let
		// the addresses take the table escape.
		e := int64(mcode.CountAddrExprs(cl.Body, mcode.IUNumRegs))
		if e < bodyLen {
			m = (mcode.LoopOverheadCycles + (bodyLen - e) - 1) / (bodyLen - e)
		} else {
			m = (mcode.LoopOverheadCycles + bodyLen - 1) / bodyLen
		}
	}
	mainTrips := trips / m
	peeled := trips % m

	if mainTrips > 0 {
		il := &mcode.IULoop{ID: g.loopID, Trips: mainTrips}
		g.loopID++
		lb := &iuBody{parent: body, depth: body.depth + 1, idx: g.bodies, startInParent: body.length, loop: il, cellLoop: cl, m: m, epoch: g.curEpoch}
		g.bodies++
		for c := int64(0); c < m; c++ {
			g.pushStack(cl, lb, c, m)
			g.mirrorItems(cl.Body, lb)
			g.popStack()
			if g.err != nil {
				return
			}
			// Loop signal at the last cycle of each unrolled copy: the
			// decision depends on the IU loop counter.
			g.placeSig(lb, (c+1)*bodyLen-1, &mcode.IUSig{
				LoopID: cl.ID, Copy: c, M: m, CellTrips: trips,
			})
		}
		// Counter bookkeeping: reserve three straight adder cycles.
		if !g.reserveCounter(lb) {
			g.fail("loop L%d: no straight cycles available for the IU's counter work", cl.ID)
			return
		}
		il.Body = lb.items
		body.items = append(body.items, il)
		body.length += lb.length * mainTrips
	}
	// Remainder iterations (tiny unrolled bodies only), straight-line
	// in the parent body with static signals.
	for p := int64(0); p < peeled; p++ {
		iter := mainTrips*m + p
		g.pushStack(cl, nil, iter, m)
		g.mirrorItems(cl.Body, body)
		g.popStack()
		if g.err != nil {
			return
		}
		g.placeSig(body, body.length-1, &mcode.IUSig{
			LoopID: cl.ID, Static: true, Continue: iter < trips-1,
		})
	}
}

func (g *genState) pushStack(cl *mcode.LoopItem, lb *iuBody, copyIdx, m int64) {
	g.cellStack = append(g.cellStack, stackEntry{cellLoop: cl, body: lb, copyIdx: copyIdx, m: m})
}

func (g *genState) popStack() { g.cellStack = g.cellStack[:len(g.cellStack)-1] }

// placeSig emits a loop signal at the latest free straight cycle at or
// before target — but no earlier than the end of the last nested loop
// item, so that the FIFO order of emitted signals matches the order the
// cell's sequencer pops them.  (The cell code generator pads loop
// bodies that end with a nested loop so such a cycle always exists.)
func (g *genState) placeSig(body *iuBody, target int64, sig *mcode.IUSig) {
	var lowBound int64
	if n := len(body.segs); n > 0 {
		lowBound = body.segs[n-1].start
	}
	for cyc := target; cyc >= lowBound; cyc-- {
		in := g.instrAt(body, cyc)
		if in != nil && in.Sig == nil {
			in.Sig = sig
			return
		}
	}
	g.fail("loop L%d: no straight cycle available for the loop signal (the cell program needs a trailing pad)", sig.LoopID)
}

// instrAt returns the instruction at a straight cycle of body, or nil
// if the cycle falls inside a nested loop item.
func (g *genState) instrAt(body *iuBody, cycle int64) *mcode.IUInstr {
	for _, s := range body.segs {
		if cycle >= s.start && cycle < s.start+int64(len(s.block.Instrs)) {
			return s.block.Instrs[cycle-s.start]
		}
	}
	return nil
}

// reserveCounter marks three straight adder cycles of the loop body as
// counter bookkeeping.  Earliest cycles are taken first: induction
// updates must run after the last address output of the iteration, so
// the late cycles are kept free for them.
func (g *genState) reserveCounter(body *iuBody) bool {
	need := mcode.LoopOverheadCycles
	for _, s := range body.segs {
		for _, in := range s.block.Instrs {
			if need == 0 {
				return true
			}
			if in.Alu == nil && !in.CtrWork {
				in.CtrWork = true
				need--
			}
		}
	}
	return need == 0
}
