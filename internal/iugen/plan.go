package iugen

import (
	"fmt"
	"sort"

	"warp/internal/mcode"
)

// This file implements the §6.3.2 operand-selection algorithm: each
// address expression is bound to an induction register updated by
// additions (strength reduction), and expressions that cannot be
// computed in time — no free adder cycle for an update, or no register
// left — are marked for the sequential table, exactly the escape
// mechanism the paper describes.

// depth returns the nesting depth of a body (top level = 0).
func depth(b *iuBody) int {
	d := 0
	for b.parent != nil {
		d++
		b = b.parent
	}
	return d
}

// groupExprs partitions the sites into address expressions.
func (g *genState) groupExprs() []*expr {
	byKey := make(map[string]*expr)
	var order []*expr
	for _, s := range g.sites {
		sort.Slice(s.terms, func(i, j int) bool { return depth(s.terms[i].body) < depth(s.terms[j].body) })
		key := fmt.Sprintf("c%d", s.constV)
		for _, t := range s.terms {
			key += fmt.Sprintf("|b%p*%d", t.body, t.stride)
		}
		e, ok := byKey[key]
		if !ok {
			e = &expr{key: key, constV: s.constV}
			for _, t := range s.terms {
				e.terms = append(e.terms, t.term)
			}
			byKey[key] = e
			order = append(order, e)
		}
		e.sites = append(e.sites, s)
		// Dynamic count: one output per execution of the site.
		cnt := int64(1)
		for b := s.seg.owner; b != nil; b = b.parent {
			if b.loop != nil {
				cnt *= b.loop.Trips
			}
		}
		e.dynCount += cnt
	}
	for _, e := range order {
		sort.Slice(e.sites, func(i, j int) bool { return e.sites[i].seq < e.sites[j].seq })
	}
	return order
}

// pendingUpdate is a strength-reduction add tentatively placed in an
// instruction; the register number is patched in after spilling.  A
// pre-placed update fires before the iteration's first use, which the
// register's initialization compensates for (init bias −delta).
type pendingUpdate struct {
	in    *mcode.IUInstr
	delta int64
	pre   bool
}

// planner state for update placement.
type planner struct {
	taken   map[*mcode.IUInstr]bool
	pending map[*expr][]*pendingUpdate
}

// exprScope returns the segment-order epoch of the top-level region all
// of e's sites fall in, or global=true when they span regions (then the
// register must stay live for the whole program).
func (g *genState) exprScope(e *expr) (epoch int, global bool) {
	key := -1
	for _, s := range e.sites {
		ep := s.seg.owner.epoch
		if s.seg.owner == g.top {
			ep = s.seg.idx
		}
		if key == -1 {
			key = ep
		} else if key != ep {
			return 0, true
		}
	}
	return key, false
}

// planExprs binds expressions to registers and places their update and
// initialization instructions, spilling what does not fit.
//
// Register liveness is scoped: an expression used only within one
// top-level region frees its register afterwards, so different regions
// reuse the same numbers — "at no time can there be more than 16 live
// variables" (§6.3.2) is a statement about liveness, not about the
// static count.  A scoped register is re-initialized by an immediate
// placed in any earlier free immediate field (re-executing an
// initialization inside an earlier loop is idempotent and harmless);
// expressions whose register cannot be initialized in time are spilled,
// exactly the paper's step 3b ("If no cycle is available to initialize
// the register, mark the address").
//
// It returns the prologue (global initializations) and the peak number
// of simultaneously live registers.
func (g *genState) planExprs(exprs []*expr) ([]*mcode.IUInstr, int, error) {
	pl := &planner{
		taken:   make(map[*mcode.IUInstr]bool),
		pending: make(map[*expr][]*pendingUpdate),
	}
	var candidates []*expr
	for _, e := range exprs {
		if ok := pl.plan(e); ok {
			candidates = append(candidates, e)
			for _, u := range pl.pending[e] {
				if u.pre {
					e.initBias -= u.delta
				}
			}
		} else {
			pl.unplace(e)
			e.spilled = true
		}
	}

	// Partition by scope.
	type scope struct {
		epoch int
		exprs []*expr
	}
	var globals []*expr
	scopesByEpoch := map[int]*scope{}
	for _, e := range candidates {
		if ep, global := g.exprScope(e); global {
			globals = append(globals, e)
		} else {
			sc := scopesByEpoch[ep]
			if sc == nil {
				sc = &scope{epoch: ep}
				scopesByEpoch[ep] = sc
			}
			sc.exprs = append(sc.exprs, e)
		}
	}

	// Spill policy: fewest dynamic outputs first — "complicated address
	// computations with no common sub-expressions are good candidates;
	// address computations inside nested loops are bad candidates"
	// (§6.3.2).
	trim := func(list []*expr, limit int) []*expr {
		if len(list) <= limit {
			return list
		}
		sort.SliceStable(list, func(i, j int) bool { return list[i].dynCount > list[j].dynCount })
		for _, e := range list[limit:] {
			pl.unplace(e)
			e.spilled = true
		}
		return list[:limit]
	}
	globals = trim(globals, mcode.IUNumRegs)
	pool := mcode.IUNumRegs - len(globals)
	var scopes []*scope
	for _, sc := range scopesByEpoch {
		sc.exprs = trim(sc.exprs, pool)
		scopes = append(scopes, sc)
	}
	sort.Slice(scopes, func(i, j int) bool { return scopes[i].epoch < scopes[j].epoch })

	// Numbering: globals first; scoped expressions then share the
	// remaining numbers greedily.  Reusing a number for a later region
	// requires a free immediate field between the two regions to
	// re-initialize it (the inter-region gap cycles the cell code
	// generator emits provide them); when no number can be
	// re-initialized in time, a fresh one is taken and initialized in
	// the prologue; when neither works the expression is spilled —
	// the paper's step 3b.
	sort.Slice(globals, func(i, j int) bool { return globals[i].sites[0].seq < globals[j].sites[0].seq })
	for i, e := range globals {
		e.reg = mcode.IUReg(i)
	}
	var prologue []*mcode.IUInstr
	for _, e := range globals {
		prologue = append(prologue, &mcode.IUInstr{Imm: &mcode.IUImm{Dst: e.reg, Value: e.constV + e.initBias}})
	}
	regionEnd := func(epoch int) int {
		for _, m := range g.epochMarks {
			if m > epoch {
				return m
			}
		}
		return len(g.segOrder)
	}
	nextFresh := len(globals)
	maxRegs := len(globals)
	freeFrom := map[mcode.IUReg]int{} // numbers in reuse rotation → dead-from index
	for _, sc := range scopes {
		end := regionEnd(sc.epoch)
		sort.Slice(sc.exprs, func(i, j int) bool { return sc.exprs[i].sites[0].seq < sc.exprs[j].sites[0].seq })
		usedHere := map[mcode.IUReg]bool{}
		for _, e := range sc.exprs {
			assigned := false
			// Reuse a dead number if its re-initialization fits.
			for r := mcode.IUReg(len(globals)); int(r) < nextFresh; r++ {
				if usedHere[r] {
					continue
				}
				e.reg = r
				if g.placeInit(e, freeFrom[r], sc.epoch) {
					freeFrom[r] = end
					usedHere[r] = true
					assigned = true
					break
				}
			}
			if !assigned && nextFresh < mcode.IUNumRegs {
				e.reg = mcode.IUReg(nextFresh)
				nextFresh++
				prologue = append(prologue, &mcode.IUInstr{Imm: &mcode.IUImm{Dst: e.reg, Value: e.constV + e.initBias}})
				freeFrom[e.reg] = end
				usedHere[e.reg] = true
				assigned = true
			}
			if !assigned {
				pl.unplace(e)
				e.spilled = true
			}
		}
		if nextFresh > maxRegs {
			maxRegs = nextFresh
		}
	}

	// Materialize the surviving updates.
	for _, e := range candidates {
		if e.spilled {
			continue
		}
		for _, u := range pl.pending[e] {
			u.in.Alu = &mcode.IUAlu{
				Dst: e.reg, A: e.reg,
				BIsImm: true, ImmVal: u.delta,
			}
			if u.delta < 0 {
				u.in.Alu.Sub = true
				u.in.Alu.ImmVal = -u.delta
			}
		}
	}
	return prologue, maxRegs, nil
}

// placeInit writes the register initialization into a free immediate
// field of a segment in [from, epoch), searching backward (closest
// first).
func (g *genState) placeInit(e *expr, from, epoch int) bool {
	for i := epoch - 1; i >= from; i-- {
		seg := g.segOrder[i]
		for c := len(seg.instrs) - 1; c >= 0; c-- {
			in := seg.instrs[c]
			if in.Imm == nil {
				in.Imm = &mcode.IUImm{Dst: e.reg, Value: e.constV + e.initBias}
				return true
			}
		}
	}
	return false
}

// unplace releases an expression's tentatively reserved cycles.
func (pl *planner) unplace(e *expr) {
	for _, u := range pl.pending[e] {
		delete(pl.taken, u.in)
	}
	delete(pl.pending, e)
}

// plan attempts register binding for one expression: one update per
// unrolled copy at the innermost induction level, and one compensating
// update per iteration of every enclosing loop between the innermost
// and outermost induction levels.
func (pl *planner) plan(e *expr) bool {
	if len(e.terms) == 0 {
		return true // constant address: init only
	}
	innermost := e.terms[len(e.terms)-1].body

	// The chain of loops from the innermost induction level up through
	// every enclosing loop, with their strides (0 for loops the address
	// does not depend on).  Loops above the outermost induction level
	// still need compensation: the accumulation of the levels below must
	// be undone so the register restarts each enclosing iteration.
	strideOf := make(map[*iuBody]int64)
	for _, t := range e.terms {
		strideOf[t.body] = t.stride
	}
	var chain []*iuBody
	for b := innermost; b.parent != nil; b = b.parent {
		chain = append(chain, b)
	}
	// chain[0] = innermost ... chain[len-1] = outermost loop body.

	// Innermost level: one update of +stride after each copy's last use.
	if !pl.planInnermost(e, innermost, strideOf[innermost]) {
		return false
	}
	// Outer levels: compensate the accumulation of the level below.
	for i := 1; i < len(chain); i++ {
		b := chain[i]
		below := chain[i-1]
		accum := pl.levelAccum(below, strideOf[below])
		delta := strideOf[b] - accum
		if delta == 0 {
			continue
		}
		// Window: after the inner loop item ends, before this body's
		// iteration ends; or, pre-placed, before the inner loop item
		// starts (compensated in the initialization).
		from := below.startInParent + below.loop.Trips*below.length
		if pl.placeIn(e, b, from, b.length, delta, false) {
			continue
		}
		if pl.placeIn(e, b, 0, below.startInParent, delta, true) {
			continue
		}
		return false
	}
	return true
}

// levelAccum is the total register change contributed per complete
// execution of the loop b: its in-body updates run m times per IU
// iteration for Trips iterations.
func (pl *planner) levelAccum(b *iuBody, stride int64) int64 {
	return stride * b.m * b.loop.Trips
}

// planInnermost places the per-copy updates at the innermost level.
func (pl *planner) planInnermost(e *expr, b *iuBody, stride int64) bool {
	if stride == 0 {
		return true
	}
	cellBodyLen := b.length / b.m
	// Last use per copy, first use per copy (intervals mapped to b).
	last := make([]int64, b.m)
	first := make([]int64, b.m)
	for c := range first {
		first[c] = int64(-1)
		last[c] = int64(-1)
	}
	for _, s := range e.sites {
		lo, hi, ok := mapInterval(s, b)
		if !ok {
			return false // site outside the induction loop: spill
		}
		c := int64(0)
		for _, st := range s.terms {
			if st.body == b {
				c = st.copyIdx
			}
		}
		if c >= b.m {
			// A peeled site cannot share the in-loop register.
			return false
		}
		if first[c] < 0 || lo < first[c] {
			first[c] = lo
		}
		if hi > last[c] {
			last[c] = hi
		}
	}
	for c := int64(0); c < b.m; c++ {
		if first[c] < 0 {
			// A copy with no use: synthesize window boundaries from the
			// copy's extent.
			first[c] = c * cellBodyLen
			last[c] = c * cellBodyLen
		}
	}
	for c := int64(0); c < b.m; c++ {
		from := last[c]
		to := b.length
		if c+1 < b.m {
			to = first[c+1]
		}
		if pl.placeIn(e, b, from, to, stride, false) {
			continue
		}
		if b.m == 1 && pl.placeIn(e, b, 0, first[0], stride, true) {
			continue
		}
		return false
	}
	return true
}

// mapInterval maps a site's execution to a cycle interval of body b:
// the site's own cycle if directly inside b, or the span of the
// enclosing loop item one level under b.
func mapInterval(s *site, b *iuBody) (lo, hi int64, ok bool) {
	cur := s.seg.owner
	lo = s.seg.start + s.cycle
	hi = lo
	for cur != b {
		if cur.parent == nil {
			return 0, 0, false
		}
		span := cur.length
		if cur.loop != nil {
			span *= cur.loop.Trips
		}
		lo = cur.startInParent
		hi = cur.startInParent + span - 1
		cur = cur.parent
	}
	return lo, hi, true
}

// placeIn reserves a free adder cycle in [from, to) of b's straight
// segments for a pending +delta update.  pre marks updates placed
// before the iteration's first use (compensated by the register's
// initialization).
func (pl *planner) placeIn(e *expr, b *iuBody, from, to int64, delta int64, pre bool) bool {
	for _, seg := range b.segs {
		for c, in := range seg.instrs {
			cyc := seg.start + int64(c)
			if cyc < from || cyc >= to {
				continue
			}
			if in.Alu != nil || in.CtrWork || pl.taken[in] {
				continue
			}
			pl.taken[in] = true
			pl.pending[e] = append(pl.pending[e], &pendingUpdate{in: in, delta: delta, pre: pre})
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Table construction and output emission.

// buildTable enumerates, in execution order, the values of every
// spilled site; the result is the pre-stored sequential table (§6.3.2).
// Its length is known in closed form — each spilled site reads once per
// iteration of the loops around it — so a table that would overflow is
// refused before anything is walked.
func (g *genState) buildTable(exprs []*expr) ([]int64, error) {
	sitesOf := make(map[*mcode.IUStraight][]*site) // a block's spilled sites
	bodyOf := make(map[*mcode.IULoop]*iuBody)      // the loops around them
	var words int64
	for _, e := range exprs {
		if !e.spilled {
			continue
		}
		for _, s := range e.sites {
			sitesOf[s.seg.block] = append(sitesOf[s.seg.block], s)
			reads := int64(1)
			for b := s.seg.owner; b.loop != nil; b = b.parent {
				bodyOf[b.loop] = b
				// Saturating just past the table is all the check needs, and
				// keeps the product far from overflow.
				trips := min(max(b.loop.Trips, 0), mcode.TableWords+1)
				reads = min(reads*trips, mcode.TableWords+1)
			}
			words = min(words+reads, mcode.TableWords+1)
		}
	}
	if words > mcode.TableWords {
		return nil, fmt.Errorf("iugen: pre-stored addresses exceed the %d-word table (queue overflow of the escape mechanism); fewer addresses must be spilled", mcode.TableWords)
	}
	if words == 0 {
		return nil, nil
	}
	for _, ss := range sitesOf {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].cycle != ss[j].cycle {
				return ss[i].cycle < ss[j].cycle
			}
			return ss[i].slot < ss[j].slot
		})
	}

	table := make([]int64, 0, words)
	iters := make(map[*iuBody]int64)
	var walk func(items []mcode.IUItem)
	walk = func(items []mcode.IUItem) {
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.IUStraight:
				for _, s := range sitesOf[it] {
					v := s.constV
					for _, t := range s.terms {
						v += t.stride * (t.body.m*iters[t.body] + t.copyIdx)
					}
					table = append(table, v)
				}
			case *mcode.IULoop:
				b := bodyOf[it]
				if b == nil {
					continue // no spilled site inside
				}
				for i := int64(0); i < it.Trips; i++ {
					iters[b] = i
					walk(it.Body)
				}
			}
		}
	}
	walk(g.top.items)
	return table, nil
}

// emitOuts fills the address-output fields of every site's instruction.
func (g *genState) emitOuts(exprs []*expr) {
	exprOf := make(map[*site]*expr)
	for _, e := range exprs {
		for _, s := range e.sites {
			exprOf[s] = e
		}
	}
	for _, s := range g.sites {
		e := exprOf[s]
		in := s.seg.instrs[s.cycle]
		if e.spilled {
			in.Out[s.slot] = &mcode.IUOut{FromTable: true}
		} else {
			in.Out[s.slot] = &mcode.IUOut{Src: e.reg}
		}
	}
}
