// Package hostgen generates the host I/O processor programs (§2.2,
// §6.1): the exact sequence of words the host must feed into the first
// cell's queues, and the host memory locations that successive words
// arriving from the last cell are stored to.
//
// "The I/O processors in the Warp host must be programmed to supply
// input in the exact sequence as the data is used in the Warp cells" —
// the sequence is obtained by walking the scheduled cell program in
// execution order and resolving each receive's external binding.
//
// The walk is driven by a precompiled plan rather than by interpreting
// the code items directly: each I/O operation's affine host address is
// resolved once against its (static) enclosing loop nest, so emitting a
// word costs a few integer multiply-adds instead of map lookups and an
// affine-shift allocation.  The streams for a 512×512 image workload
// run to millions of words, which made the per-word constant the
// dominant phase of whole compilations before this plan existed.
package hostgen

import (
	"fmt"

	"warp/internal/conc"
	"warp/internal/mcode"
	"warp/internal/w2"
)

// Word is one input word the host sends: either a literal or a host
// memory location.
type Word struct {
	Literal bool
	Value   float64 // literal value
	Index   int     // host memory index (when !Literal)
}

// Discard marks an output word with no host destination (a dummy send
// inserted to conserve the stream, as in the paper's Figure 4-1).
const Discard = -1

// Program is the host I/O program: per channel, the input word sequence
// for the first cell and the output destination sequence from the last
// cell (host memory index or Discard).
type Program struct {
	In  map[w2.Channel][]Word
	Out map[w2.Channel][]int
}

// stream identifies one host I/O stream: a (channel, direction) pair.
type stream struct {
	ch   w2.Channel
	recv bool
}

// opKind classifies what a planned I/O operation emits.
type opKind uint8

const (
	opInLiteral  opKind = iota // In word, literal value
	opInExt                    // In word, resolved host index
	opOutExt                   // Out index, resolved
	opOutDiscard               // Out index, Discard
)

// opTerm is one affine term of a resolved host address: coefficient
// times the current value of the loop bound to slot.
type opTerm struct {
	coef int64
	slot int
}

// opPlan is one I/O operation with its host binding resolved against
// the static loop nest: emitting a word evaluates base + Σ coef·val.
type opPlan struct {
	kind  opKind
	strm  stream
	value float64 // literal value (opInLiteral)
	base  int64   // Base + Shifted().Const (opInExt, opOutExt)
	terms []opTerm
	// err is a lazily-reported resolution failure: the dynamic walk
	// only faults when the operation actually executes, so a plan op
	// inside a zero-trip loop must not fail the generation.
	err error
}

// planNode is one node of the precompiled walk: either a run of
// operations (from straight-line code) or a counted loop.
type planNode struct {
	ops []opPlan // non-loop node: operations in execution order

	// loop node (ops == nil):
	trips, first, step int64
	slot               int
	body               []planNode
}

// plan is the precompiled host-generation walk for one stream subset.
type plan struct {
	nodes []planNode
	slots int
	// words counts the dynamic emissions per stream (for exact
	// preallocation); firstErr is the document-first resolution error
	// that a walk would actually reach (nil when none executes).
	words    map[stream]int64
	firstErr error
}

// Generate walks the cell program and produces the host program.  Every
// receive on the array's input side must carry an external binding (the
// first cell receives it from the host); sends without externals are
// discarded on output.
func Generate(cell *mcode.CellProgram) (*Program, error) {
	return GenerateParallel(cell, 1)
}

// GenerateParallel generates like Generate, emitting the independent
// per-(channel, direction) streams on up to workers goroutines.  The
// streams are disjoint slices built in the same walk order at any
// worker count, so the resulting Program is identical to Generate's.
func GenerateParallel(cell *mcode.CellProgram, workers int) (*Program, error) {
	full := compilePlan(cell.Items)
	if full.firstErr != nil {
		return nil, full.firstErr
	}
	prog := &Program{
		In:  map[w2.Channel][]Word{},
		Out: map[w2.Channel][]int{},
	}
	streams := full.activeStreams()
	if workers < 2 || len(streams) < 2 {
		e := newEmitter(full)
		for _, s := range streams {
			e.reserve(s, full.words[s])
		}
		e.run(full.nodes)
		e.install(prog)
		return prog, nil
	}
	// Fan out one pruned plan per stream.  Each walk visits only the
	// loops that contain its stream's operations, so the total work is
	// close to the serial walk even though the tree is traversed once
	// per stream.  The streams are disjoint map keys, so the merge is
	// order-independent — the output is byte-identical to the serial
	// walk's at any worker count.
	emitters := make([]*emitter, len(streams))
	conc.Do(workers, len(streams), func(i int) {
		s := streams[i]
		sub := full.filter(s)
		e := newEmitter(sub)
		e.reserve(s, full.words[s])
		e.run(sub.nodes)
		emitters[i] = e
	})
	for _, e := range emitters {
		e.install(prog)
	}
	return prog, nil
}

// activeStreams lists the streams with at least one dynamic word, in
// canonical (channel, direction) order.
func (p *plan) activeStreams() []stream {
	var out []stream
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		for _, recv := range []bool{true, false} {
			if p.words[stream{ch, recv}] > 0 {
				out = append(out, stream{ch, recv})
			}
		}
	}
	return out
}

// filter returns the plan reduced to one stream's operations, with
// loops whose bodies became empty pruned (their iterations emit
// nothing, so skipping them preserves the output exactly).
func (p *plan) filter(s stream) *plan {
	var prune func(nodes []planNode) []planNode
	prune = func(nodes []planNode) []planNode {
		var out []planNode
		for _, n := range nodes {
			if n.ops != nil {
				var ops []opPlan
				for _, op := range n.ops {
					if op.strm == s {
						ops = append(ops, op)
					}
				}
				if len(ops) > 0 {
					out = append(out, planNode{ops: ops})
				}
				continue
			}
			body := prune(n.body)
			if len(body) > 0 {
				out = append(out, planNode{trips: n.trips, first: n.first, step: n.step, slot: n.slot, body: body})
			}
		}
		return out
	}
	return &plan{nodes: prune(p.nodes), slots: p.slots, words: p.words}
}

// compilePlan builds the precompiled walk for the item tree.  It also
// performs the symbolic word count and locates the first resolution
// error an actual walk would reach.
func compilePlan(items []mcode.CodeItem) *plan {
	p := &plan{words: map[stream]int64{}}
	b := &planBuilder{plan: p}
	p.nodes = b.build(items, 1)
	p.slots = b.nextSlot
	return p
}

// loopBind pairs a loop item with its slot during plan construction.
type loopBind struct {
	li   *mcode.LoopItem
	slot int
}

type planBuilder struct {
	plan     *plan
	stack    []*loopBind
	nextSlot int
}

// build compiles one item list; mult is the product of the enclosing
// trip counts (saturating), used for word counting and reachability.
func (b *planBuilder) build(items []mcode.CodeItem, mult int64) []planNode {
	var nodes []planNode
	var ops []opPlan
	flush := func() {
		if len(ops) > 0 {
			nodes = append(nodes, planNode{ops: ops})
			ops = nil
		}
	}
	for _, it := range items {
		switch it := it.(type) {
		case *mcode.Straight:
			for _, in := range it.Instrs {
				for _, io := range in.IO {
					op := b.compileOp(io)
					if op.err != nil && mult > 0 && b.plan.firstErr == nil {
						b.plan.firstErr = op.err
					}
					b.plan.words[op.strm] += mult
					ops = append(ops, op)
				}
			}
		case *mcode.LoopItem:
			flush()
			slot := b.nextSlot
			b.nextSlot++
			b.stack = append(b.stack, &loopBind{li: it, slot: slot})
			body := b.build(it.Body, satMul(mult, it.Trips))
			b.stack = b.stack[:len(b.stack)-1]
			nodes = append(nodes, planNode{
				trips: it.Trips, first: it.First, step: it.Step,
				slot: slot, body: body,
			})
		}
	}
	flush()
	return nodes
}

// satMul multiplies saturating at 1<<40 — counts feed preallocation
// and reachability only, so overflow must clamp, not wrap.
func satMul(a, c int64) int64 {
	const lim = 1 << 40
	if a <= 0 || c <= 0 {
		return 0
	}
	if a > lim/c {
		return lim
	}
	return a * c
}

// compileOp resolves one I/O operation against the current loop stack.
func (b *planBuilder) compileOp(io *mcode.IOOp) opPlan {
	s := stream{io.Chan, io.Recv}
	if io.Recv {
		switch {
		case io.ExtLiteral != nil:
			return opPlan{kind: opInLiteral, strm: s, value: *io.ExtLiteral}
		case io.Ext != nil:
			return b.resolve(opInExt, s, io.Ext)
		default:
			return opPlan{strm: s, err: fmt.Errorf("hostgen: a receive on channel %s has no external binding; the first cell would starve (every receive from the host side needs an external, §4.3)", io.Chan)}
		}
	}
	if io.Ext != nil {
		return b.resolve(opOutExt, s, io.Ext)
	}
	return opPlan{kind: opOutDiscard, strm: s}
}

// resolve folds the binding's pipelining delta into the constant term
// (AddrInfo.Shifted) and binds each remaining affine term to the
// innermost enclosing loop with the matching source statement — the
// binding the dynamic walk re-derived per emitted word.
func (b *planBuilder) resolve(kind opKind, s stream, a *mcode.AddrInfo) opPlan {
	aff := a.Shifted()
	op := opPlan{kind: kind, strm: s, base: int64(a.Base) + aff.Const}
	for _, t := range aff.Terms {
		bind := b.findLoop(t.Var)
		if bind == nil {
			return opPlan{strm: s, err: fmt.Errorf("hostgen: external %s references loop %s outside its scope", a, t.Var.Var)}
		}
		op.terms = append(op.terms, opTerm{coef: t.Coef, slot: bind.slot})
	}
	return op
}

func (b *planBuilder) findLoop(f *w2.ForStmt) *loopBind {
	for i := len(b.stack) - 1; i >= 0; i-- {
		if b.stack[i].li.Src == f {
			return b.stack[i]
		}
	}
	return nil
}

// numChans bounds the channel index space (ChanX, ChanY).
const numChans = 2

// emitter executes a plan: loop slots hold current index values, and
// each operation appends to its stream's slice (arrays indexed by
// channel — no map traffic on the per-word path).
type emitter struct {
	vals []int64
	in   [numChans][]Word
	outs [numChans][]int
}

func newEmitter(p *plan) *emitter {
	return &emitter{vals: make([]int64, p.slots)}
}

// reserve preallocates one stream's backing store with the exact
// symbolic word count (capped defensively: a pathological trip-count
// product should grow by append, not one giant allocation).
func (e *emitter) reserve(s stream, n int64) {
	const capLimit = 1 << 24
	if n > capLimit {
		n = capLimit
	}
	if s.recv {
		e.in[s.ch] = make([]Word, 0, n)
	} else {
		e.outs[s.ch] = make([]int, 0, n)
	}
}

func (e *emitter) run(nodes []planNode) {
	for i := range nodes {
		n := &nodes[i]
		if n.ops != nil {
			for j := range n.ops {
				e.emit(&n.ops[j])
			}
			continue
		}
		v := n.first
		for k := int64(0); k < n.trips; k++ {
			e.vals[n.slot] = v
			e.run(n.body)
			v += n.step
		}
	}
}

func (e *emitter) emit(op *opPlan) {
	switch op.kind {
	case opInLiteral:
		e.in[op.strm.ch] = append(e.in[op.strm.ch], Word{Literal: true, Value: op.value})
	case opInExt:
		e.in[op.strm.ch] = append(e.in[op.strm.ch], Word{Index: int(e.index(op))})
	case opOutExt:
		e.outs[op.strm.ch] = append(e.outs[op.strm.ch], int(e.index(op)))
	case opOutDiscard:
		e.outs[op.strm.ch] = append(e.outs[op.strm.ch], Discard)
	}
}

func (e *emitter) index(op *opPlan) int64 {
	idx := op.base
	for _, t := range op.terms {
		idx += t.coef * e.vals[t.slot]
	}
	return idx
}

// install moves the emitter's streams into the program maps, creating
// map entries only for streams that emitted at least one word (the
// shape the dynamic walk produced).
func (e *emitter) install(prog *Program) {
	for ch := 0; ch < numChans; ch++ {
		if ws := e.in[ch]; len(ws) > 0 {
			prog.In[w2.Channel(ch)] = ws
		}
		if is := e.outs[ch]; len(is) > 0 {
			prog.Out[w2.Channel(ch)] = is
		}
	}
}
