package iugen

import (
	"cmp"
	"fmt"
	"slices"

	"warp/internal/mcode"
)

// This file implements the §6.3.2 operand-selection algorithm: each
// address expression is bound to an induction register updated by
// additions (strength reduction), and expressions that cannot be
// computed in time — no free adder cycle for an update, or no register
// left — are marked for the sequential table, exactly the escape
// mechanism the paper describes.

// exprKey buckets the expressions: its constant, its innermost
// induction loop body (-1 for a constant address) and that loop's
// stride.  Expressions under one key are told apart by their full term
// lists (expr.alias chains them).
type exprKey struct {
	constV int64
	body   int
	stride int64
}

// groupExprs partitions the sites into address expressions, in order of
// their first site, each expression's sites in seq order.  The
// expressions are one table, their terms windows of one buffer and
// their sites windows of one table.
func (g *genState) groupExprs() []*expr {
	var all []expr
	var terms []term
	byKey := make(map[exprKey]int) // the latest expression under a key
	idOf := make([]int, len(g.sites))
	var counts []int // sites per expression
	for i := range g.sites {
		s := &g.sites[i]
		key := exprKey{constV: s.constV, body: -1}
		if n := len(s.terms); n > 0 {
			key.body, key.stride = s.terms[n-1].body.idx, s.terms[n-1].stride
		}
		id, ok := byKey[key]
		for ok && !sameTerms(all[id].terms, s.terms) {
			id = all[id].alias
			ok = id >= 0
		}
		if !ok {
			lo := len(terms)
			for _, t := range s.terms {
				terms = append(terms, t.term)
			}
			alias, chained := byKey[key]
			if !chained {
				alias = -1
			}
			id = len(all)
			all = append(all, expr{constV: s.constV, terms: terms[lo:len(terms):len(terms)], alias: alias})
			counts = append(counts, 0)
			byKey[key] = id
		}
		idOf[i] = id
		counts[id]++
		// Dynamic count: one output per execution of the site.
		cnt := int64(1)
		for b := s.seg.owner; b != nil; b = b.parent {
			if b.loop != nil {
				cnt *= b.loop.Trips
			}
		}
		all[id].dynCount += cnt
	}
	order := make([]*expr, len(all))
	table := make([]*site, len(g.sites))
	off := 0
	for id := range all {
		e := &all[id]
		order[id] = e
		e.sites = table[off : off : off+counts[id]]
		off += counts[id]
	}
	for i := range g.sites {
		s := &g.sites[i]
		s.e = order[idOf[i]]
		s.e.sites = append(s.e.sites, s)
	}
	return order
}

// sameTerms reports whether an expression's terms are a site's.
func sameTerms(ts []term, ss []siteTerm) bool {
	if len(ts) != len(ss) {
		return false
	}
	for i, t := range ts {
		if t != ss[i].term {
			return false
		}
	}
	return true
}

// update is a strength-reduction add tentatively placed in an
// instruction, seg.block.Instrs[at]; the register number is patched in
// after spilling.  A pre-placed update fires before the iteration's
// first use, which the register's initialization compensates for (init
// bias −delta).
type update struct {
	seg   *segment
	at    int
	delta int64
	pre   bool
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
// of simultaneously live registers.  A table that would overflow is
// refused as soon as the register file's limits are applied: only spills
// follow.
func (g *genState) planExprs(exprs []*expr) ([]*mcode.IUInstr, int, error) {
	var cycles int
	for _, seg := range g.segOrder {
		cycles += len(seg.block.Instrs)
	}
	taken := make([]bool, cycles)
	for _, seg := range g.segOrder {
		n := len(seg.block.Instrs)
		seg.taken, taken = taken[:n:n], taken[n:]
	}
	var candidates []*expr
	for _, e := range exprs {
		if ok := e.plan(); ok {
			candidates = append(candidates, e)
			for _, u := range e.updates {
				if u.pre {
					e.initBias -= u.delta
				}
			}
		} else {
			e.spill()
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

	globals = trim(globals, mcode.IUNumRegs)
	pool := mcode.IUNumRegs - len(globals)
	var scopes []*scope
	for _, sc := range scopesByEpoch {
		sc.exprs = trim(sc.exprs, pool)
		scopes = append(scopes, sc)
	}
	if tableWords(exprs) > mcode.TableWords {
		return nil, 0, errTableFull
	}
	slices.SortFunc(scopes, func(a, b *scope) int { return cmp.Compare(a.epoch, b.epoch) })

	// Numbering: globals first; scoped expressions then share the
	// remaining numbers greedily.  Reusing a number for a later region
	// requires a free immediate field between the two regions to
	// re-initialize it (the inter-region gap cycles the cell code
	// generator emits provide them); when no number can be
	// re-initialized in time, a fresh one is taken and initialized in
	// the prologue; when neither works the expression is spilled —
	// the paper's step 3b.
	byFirstSite := func(a, b *expr) int { return cmp.Compare(a.sites[0].seq, b.sites[0].seq) }
	slices.SortFunc(globals, byFirstSite)
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
	var freeFrom [mcode.IUNumRegs]int // numbers in reuse rotation → dead-from index
	for _, sc := range scopes {
		end := regionEnd(sc.epoch)
		slices.SortFunc(sc.exprs, byFirstSite)
		var usedHere [mcode.IUNumRegs]bool
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
				e.spill()
			}
		}
		if nextFresh > maxRegs {
			maxRegs = nextFresh
		}
	}

	// Materialize the surviving updates, their adds taken from one slab.
	n := 0
	for _, e := range candidates {
		if !e.spilled {
			n += len(e.updates)
		}
	}
	alus := make([]mcode.IUAlu, 0, n)
	for _, e := range candidates {
		if e.spilled {
			continue
		}
		for _, u := range e.updates {
			alu := mcode.IUAlu{Dst: e.reg, A: e.reg, BIsImm: true, ImmVal: u.delta}
			if u.delta < 0 {
				alu.Sub = true
				alu.ImmVal = -u.delta
			}
			alus = append(alus, alu)
			u.seg.block.Instrs[u.at].Alu = &alus[len(alus)-1]
		}
	}
	return prologue, maxRegs, nil
}

// trim keeps at most limit of the expressions in list, spilling the
// rest.  Spill policy: fewest dynamic outputs first — "complicated
// address computations with no common sub-expressions are good
// candidates; address computations inside nested loops are bad
// candidates" (§6.3.2).
func trim(list []*expr, limit int) []*expr {
	if len(list) <= limit {
		return list
	}
	slices.SortStableFunc(list, func(a, b *expr) int { return cmp.Compare(b.dynCount, a.dynCount) })
	for _, e := range list[limit:] {
		e.spill()
	}
	return list[:limit]
}

// placeInit writes the register initialization into a free immediate
// field of a segment in [from, epoch), searching backward (closest
// first).
func (g *genState) placeInit(e *expr, from, epoch int) bool {
	for i := epoch - 1; i >= from; i-- {
		instrs := g.segOrder[i].block.Instrs
		for c := len(instrs) - 1; c >= 0; c-- {
			in := instrs[c]
			if in.Imm == nil {
				in.Imm = &mcode.IUImm{Dst: e.reg, Value: e.constV + e.initBias}
				return true
			}
		}
	}
	return false
}

// spill releases an expression's tentatively reserved cycles and moves
// it to the table.
func (e *expr) spill() {
	for _, u := range e.updates {
		u.seg.taken[u.at] = false
	}
	e.updates = nil
	e.spilled = true
}

// strideOf returns the expression's stride in loop body b (0 if it does
// not depend on b).
func (e *expr) strideOf(b *iuBody) int64 {
	for _, t := range e.terms {
		if t.body == b {
			return t.stride
		}
	}
	return 0
}

// plan attempts register binding for one expression: one update per
// unrolled copy at the innermost induction level, and one compensating
// update per iteration of every enclosing loop between the innermost
// and outermost induction levels.
func (e *expr) plan() bool {
	if len(e.terms) == 0 {
		return true // constant address: init only
	}
	// The chain of loops from the innermost induction level up through
	// every enclosing loop, with their strides (0 for loops the address
	// does not depend on).  Loops above the outermost induction level
	// still need compensation: the accumulation of the levels below must
	// be undone so the register restarts each enclosing iteration.
	innermost := e.terms[len(e.terms)-1].body

	// Innermost level: one update of +stride after each copy's last use.
	if !e.planInnermost(innermost, e.strideOf(innermost)) {
		return false
	}
	// Outer levels, up to the outermost loop body: compensate the
	// accumulation of the level below.
	for below, b := innermost, innermost.parent; b.parent != nil; below, b = b, b.parent {
		accum := levelAccum(below, e.strideOf(below))
		delta := e.strideOf(b) - accum
		if delta == 0 {
			continue
		}
		// Window: after the inner loop item ends, before this body's
		// iteration ends; or, pre-placed, before the inner loop item
		// starts (compensated in the initialization).
		from := below.startInParent + below.loop.Trips*below.length
		if e.placeIn(b, from, b.length, delta, false) {
			continue
		}
		if e.placeIn(b, 0, below.startInParent, delta, true) {
			continue
		}
		return false
	}
	return true
}

// levelAccum is the total register change contributed per complete
// execution of the loop b: its in-body updates run m times per IU
// iteration for Trips iterations.
func levelAccum(b *iuBody, stride int64) int64 {
	return stride * b.m * b.loop.Trips
}

// planInnermost places the per-copy updates at the innermost level.
func (e *expr) planInnermost(b *iuBody, stride int64) bool {
	if stride == 0 {
		return true
	}
	cellBodyLen := b.length / b.m
	// First and last use per copy (intervals mapped to b).  mirrorLoop
	// unrolls a body at most LoopOverheadCycles times.
	var first, last [mcode.LoopOverheadCycles]int64
	for c := range b.m {
		first[c], last[c] = -1, -1
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
		if e.placeIn(b, from, to, stride, false) {
			continue
		}
		if b.m == 1 && e.placeIn(b, 0, first[0], stride, true) {
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

// placeIn reserves the first free adder cycle in [from, to) of b's
// straight segments for a pending +delta update.  pre marks updates
// placed before the iteration's first use (compensated by the
// register's initialization).
func (e *expr) placeIn(b *iuBody, from, to int64, delta int64, pre bool) bool {
	for _, seg := range b.segs {
		if seg.start >= to {
			break
		}
		instrs := seg.block.Instrs
		for c := max(from-seg.start, 0); c < min(to-seg.start, int64(len(instrs))); c++ {
			if in := instrs[c]; in.Alu != nil || in.CtrWork || seg.taken[c] {
				continue
			}
			seg.taken[c] = true
			e.updates = append(e.updates, update{seg: seg, at: int(c), delta: delta, pre: pre})
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Table construction and output emission.

// errTableFull refuses a table longer than the IU's.
var errTableFull = fmt.Errorf("iugen: pre-stored addresses exceed the %d-word table (queue overflow of the escape mechanism); fewer addresses must be spilled", mcode.TableWords)

// tableWords is the table's length in closed form — each spilled site
// reads once per iteration of the loops around it — saturated just past
// the table: that is all the check needs.
func tableWords(exprs []*expr) int64 {
	var words int64
	for _, e := range exprs {
		if !e.spilled {
			continue
		}
		for _, s := range e.sites {
			words = min(words+siteReads(s), mcode.TableWords+1)
		}
	}
	return words
}

// boundCap saturates the reads of a site and tableBound's sums: far
// above any table, far below an overflow of the sum of two capped values.
const boundCap = int64(1) << 62

// siteReads is the number of times a site executes — the product of the
// trip counts of the IU loops around it — saturated at boundCap.
func siteReads(s *site) int64 {
	reads := int64(1)
	for b := s.seg.owner; b.loop != nil; b = b.parent {
		trips := max(b.loop.Trips, 0)
		if trips != 0 && reads > boundCap/trips {
			return boundCap
		}
		reads *= trips
	}
	return reads
}

// tableBound is a lower bound of the table planExprs would build, taken
// from the mirrored sites before any expression is grouped or planned;
// 0 when no bound is known.
//
// It applies when at least IUNumRegs constant addresses each have sites
// in two or more top-level regions.  A constant always plans, and one
// spanning regions is global (exprScope), so trim keeps exactly
// IUNumRegs globals, every region's pool is empty and every other
// expression is spilled.  The kept expressions fall under at most
// IUNumRegs keys (exprKey) and each holds a subset of its key's sites, so
// the table holds at least every site's reads but those of the IUNumRegs
// keys that read most.  Summing the other keys' reads, each saturated,
// keeps the bound sound: a key the cap touches already exceeds any table.
func (g *genState) tableBound() int64 {
	consts := 0
	for i := range g.sites {
		if len(g.sites[i].terms) == 0 {
			consts++
		}
	}
	if consts < 2*mcode.IUNumRegs { // a global constant has two sites or more
		return 0
	}
	// The keys' reads, found through an open-addressed table of key
	// numbers at most half full.
	type keyReads struct {
		key   exprKey
		reads int64
		// region is a constant's top-level region (exprScope), -1 once
		// its sites span two.
		region int
	}
	keys := make([]keyReads, 0, len(g.sites))
	bits := 1
	for 1<<bits < 2*len(g.sites) {
		bits++
	}
	slot := make([]int32, 1<<bits) // key number + 1; 0 when free
	global := 0
	for i := range g.sites {
		s := &g.sites[i]
		key := exprKey{constV: s.constV, body: -1}
		if n := len(s.terms); n > 0 {
			key.body, key.stride = s.terms[n-1].body.idx, s.terms[n-1].stride
		}
		h := (uint64(key.constV)*0x9E3779B97F4A7C15 ^ uint64(key.body)*0xC2B2AE3D27D4EB4F ^
			uint64(key.stride)*0x165667B19E3779F9) >> (64 - bits)
		for slot[h] != 0 && keys[slot[h]-1].key != key {
			h = (h + 1) & (1<<bits - 1)
		}
		region := s.seg.owner.epoch
		if s.seg.owner == g.top {
			region = s.seg.idx
		}
		if slot[h] == 0 {
			keys = append(keys, keyReads{key: key, region: region})
			slot[h] = int32(len(keys))
		}
		k := &keys[slot[h]-1]
		if key.body == -1 && k.region >= 0 && k.region != region {
			k.region = -1
			global++
		}
		k.reads = min(k.reads+siteReads(s), boundCap)
	}
	if global < mcode.IUNumRegs {
		return 0
	}
	var top [mcode.IUNumRegs]int64 // the largest sums so far, ascending
	var words int64
	for _, k := range keys {
		r := k.reads
		if r > top[0] {
			r, top[0] = top[0], r
			for j := 1; j < len(top) && top[j-1] > top[j]; j++ {
				top[j-1], top[j] = top[j], top[j-1]
			}
		}
		words = min(words+r, boundCap)
	}
	return words
}

// buildTable enumerates, in execution order, the values of every
// spilled site; the result is the pre-stored sequential table (§6.3.2).
// A table that would overflow is refused before anything is walked.
// The walk follows the IU items with dense indices: a straight item is
// its body's next segment, a loop is found by IULoop.ID and its
// iteration is kept by body idx.
func (g *genState) buildTable(exprs []*expr) ([]int64, error) {
	words := tableWords(exprs)
	if words > mcode.TableWords {
		return nil, errTableFull
	}
	if words == 0 {
		return nil, nil
	}
	// The spilled sites by segment: segment i's are
	// spilled[from[i]:from[i+1]], in (cycle, slot) order.
	from := make([]int, len(g.segOrder)+1)
	loopBody := make([]*iuBody, g.loopID) // the loops around them
	n := 0
	for i := range g.sites {
		s := &g.sites[i]
		if !s.e.spilled {
			continue
		}
		n++
		from[s.seg.idx+1]++
		for b := s.seg.owner; b.loop != nil && loopBody[b.loop.ID] == nil; b = b.parent {
			loopBody[b.loop.ID] = b
		}
	}
	for i := range g.segOrder {
		from[i+1] += from[i]
	}
	spilled := make([]*site, n)
	next := slices.Clone(from[:len(g.segOrder)])
	for i := range g.sites {
		if s := &g.sites[i]; s.e.spilled {
			spilled[next[s.seg.idx]] = s
			next[s.seg.idx]++
		}
	}
	for i := range g.segOrder {
		slices.SortFunc(spilled[from[i]:from[i+1]], func(a, b *site) int {
			return cmp.Or(cmp.Compare(a.cycle, b.cycle), cmp.Compare(a.slot, b.slot))
		})
	}

	table := make([]int64, 0, words)
	iters := make([]int64, g.bodies) // by body idx
	var walk func(body *iuBody, items []mcode.IUItem)
	walk = func(body *iuBody, items []mcode.IUItem) {
		segs := body.segs
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.IUStraight:
				seg := segs[0]
				segs = segs[1:]
				for _, s := range spilled[from[seg.idx]:from[seg.idx+1]] {
					v := s.constV
					for _, t := range s.terms {
						v += t.stride * (t.body.m*iters[t.body.idx] + t.copyIdx)
					}
					table = append(table, v)
				}
			case *mcode.IULoop:
				b := loopBody[it.ID]
				if b == nil {
					continue // no spilled site inside
				}
				for i := int64(0); i < it.Trips; i++ {
					iters[b.idx] = i
					walk(b, it.Body)
				}
			}
		}
	}
	walk(g.top, g.top.items)
	return table, nil
}

// emitOuts fills the address-output fields of every site's instruction,
// the outputs taken from one slab.
func (g *genState) emitOuts() {
	outs := make([]mcode.IUOut, len(g.sites))
	for i := range g.sites {
		s, out := &g.sites[i], &outs[i]
		if s.e.spilled {
			out.FromTable = true
		} else {
			out.Src = s.e.reg
		}
		s.seg.block.Instrs[s.cycle].Out[s.slot] = out
	}
}
