// Package cellgen generates Warp-cell microcode from the optimized IR
// (§6.2).  Each basic block's dag is list-scheduled onto the cell's
// horizontal microinstruction word (two pipelined FPUs, two memory
// ports, four queue ports); loops become counted hardware loops driven
// by the IU's termination signals.
//
// The scheduling of individual cells deliberately ignores inter-cell
// timing (§6.2.1: "Ignoring inter-cell timing constraints in the code
// generation phase simplifies the problem without compromising
// efficiency") — the skew analysis afterwards delays whole cells
// relative to one another.
package cellgen

import (
	"fmt"
	"sort"
	"time"

	"warp/internal/ir"
	"warp/internal/mcode"
	"warp/internal/prof"
	"warp/internal/w2"
)

// Options control code generation.
type Options struct {
	// Pipeline enables software pipelining of innermost loop bodies
	// (modulo scheduling with modulo variable expansion), the technique
	// family the paper cites from Patel/Davidson and Rau/Glaeser.
	Pipeline bool
	// Workers is ignored; kept for benchmark/, see ROADMAP 1(c).
	Workers int
}

// Result is the generated cell program with generation statistics.
type Result struct {
	Cell *mcode.CellProgram
	// ScalarRegs maps each cross-block scalar to its home register.
	ScalarRegs map[*w2.Symbol]mcode.Reg
	// ConstRegs maps each distinct constant to its register.
	ConstRegs map[float64]mcode.Reg
	// PipelinedLoops counts the loops software pipelining transformed.
	PipelinedLoops int
	// Sched records the modulo scheduler's per-loop search counters
	// (attempts, placements, evictions) for compiler introspection.
	Sched *prof.SchedProfile
}

// Generate produces the cell microprogram for every function of the
// program, concatenated in call order.
func Generate(p *ir.Program, opts Options) (*Result, error) {
	res := &Result{
		Cell:       &mcode.CellProgram{},
		ScalarRegs: make(map[*w2.Symbol]mcode.Reg),
		ConstRegs:  make(map[float64]mcode.Reg),
		Sched:      &prof.SchedProfile{},
	}
	g := &gen{opts: opts, res: res}
	for _, fn := range p.Funcs {
		if err := g.genFunc(fn); err != nil {
			return nil, err
		}
	}
	return res, nil
}

type gen struct {
	opts Options
	res  *Result

	nextReg  int
	tempBase int // first register available for block temporaries
	loopID   int
}

func (g *gen) genFunc(fn *ir.Func) error {
	// Dedicated registers: one per cross-block scalar, one per distinct
	// constant.  Remaining registers form the temporary pool.
	var scalars []*w2.Symbol
	var consts []float64
	seenSym := map[*w2.Symbol]bool{}
	seenConst := map[float64]bool{}
	ir.Walk(fn.Regions, func(b *ir.Block) {
		for _, n := range b.Nodes {
			switch n.Op {
			case ir.OpRead, ir.OpWrite:
				if !seenSym[n.Sym] {
					seenSym[n.Sym] = true
					scalars = append(scalars, n.Sym)
				}
			case ir.OpConst:
				if !seenConst[n.FVal] {
					seenConst[n.FVal] = true
					consts = append(consts, n.FVal)
				}
			}
		}
	})
	sort.Slice(scalars, func(i, j int) bool { return scalars[i].Name < scalars[j].Name })
	sort.Float64s(consts)

	for _, s := range scalars {
		if _, ok := g.res.ScalarRegs[s]; !ok {
			g.res.ScalarRegs[s] = mcode.Reg(g.nextReg)
			g.nextReg++
		}
	}
	var preamble []*mcode.Instr
	for _, c := range consts {
		if _, ok := g.res.ConstRegs[c]; ok {
			continue
		}
		r := mcode.Reg(g.nextReg)
		g.nextReg++
		g.res.ConstRegs[c] = r
		preamble = append(preamble, &mcode.Instr{Fields: mcode.Fields{HasLit: true, Lit: mcode.LitOp{Dst: r, Value: c}}})
	}
	g.tempBase = g.nextReg
	if g.tempBase >= mcode.NumRegs {
		return fmt.Errorf("cellgen: %d scalars and constants exceed the %d-register file", g.tempBase, mcode.NumRegs)
	}
	if len(preamble) > 0 {
		g.res.Cell.Items = append(g.res.Cell.Items, &mcode.Straight{Instrs: preamble})
	}

	items, err := g.genRegions(fn.Regions)
	if err != nil {
		return err
	}
	g.res.Cell.Items = append(g.res.Cell.Items, interRegionGaps(items)...)
	return nil
}

// interRegionGaps inserts a few idle cycles before each top-level loop,
// one per distinct address expression the loop uses (capped at the IU
// register file size).  The IU re-initializes its scoped induction
// registers in these cycles' immediate fields; the cost is a handful of
// cell cycles once per region.
func interRegionGaps(items []mcode.CodeItem) []mcode.CodeItem {
	var out []mcode.CodeItem
	for _, it := range items {
		if li, ok := it.(*mcode.LoopItem); ok {
			if n := mcode.CountAddrExprs(li.Body, mcode.IUNumRegs); n > 0 {
				out = append(out, &mcode.Straight{Instrs: nops(int64(n))})
			}
		}
		out = append(out, it)
	}
	return out
}

func (g *gen) genRegions(regions []ir.Region) ([]mcode.CodeItem, error) {
	var items []mcode.CodeItem
	for _, r := range regions {
		switch r := r.(type) {
		case *ir.BlockRegion:
			bg, err := newBlockGraph(r.Block, blockEdges(r.Block))
			if err != nil {
				return nil, err
			}
			straight, err := g.emitBlock(bg.listSchedule())
			if err != nil {
				return nil, err
			}
			items = append(items, straight...)
		case *ir.LoopRegion:
			li, err := g.genLoop(r)
			if err != nil {
				return nil, err
			}
			items = append(items, li...)
		}
	}
	return items, nil
}

// genLoop generates code for one loop region.  Innermost single-block
// loops may be software pipelined; everything else is a plain counted
// loop around the scheduled body.
func (g *gen) genLoop(r *ir.LoopRegion) ([]mcode.CodeItem, error) {
	ls := prof.LoopSched{Loop: r.Loop.Var, Line: r.Loop.Pos.Line, Trips: r.Trips()}
	start := time.Now()
	var base *blockSchedule
	if g.opts.Pipeline {
		items, b, err := g.moduloSchedule(r, &ls)
		ls.SearchNS = time.Since(start).Nanoseconds()
		if err != nil {
			return nil, err
		}
		if items != nil {
			ls.Pipelined = true
			g.res.Sched.Loops = append(g.res.Sched.Loops, ls)
			g.res.PipelinedLoops++
			return items, nil
		}
		base = b
	} else {
		ls.Reason = "pipelining disabled"
	}
	g.res.Sched.Loops = append(g.res.Sched.Loops, ls)
	var body []mcode.CodeItem
	var err error
	if base != nil {
		// The body's one block, from the list schedule the search measured
		// itself against.
		body, err = g.emitBlock(base)
	} else {
		body, err = g.genRegions(r.Body)
	}
	if err != nil {
		return nil, err
	}
	body = padLoopBody(body)
	id := g.loopID
	g.loopID++
	return []mcode.CodeItem{&mcode.LoopItem{
		ID:    id,
		Trips: r.Trips(),
		Body:  body,
		Src:   r.Loop,
		First: r.Lo,
		Step:  1,
	}}, nil
}

// padLoopBody guarantees that a loop body containing nested loops ends
// with enough straight cycles for the IU's per-iteration counter work,
// its loop signal, and the induction-register boundary updates of the
// addresses used inside (§6.3.1, §6.3.2) — one cycle per distinct
// address expression, capped at the IU register file.  Straight-line
// bodies are left alone: the IU code generator unrolls those instead,
// keeping the cells at full speed.
func padLoopBody(body []mcode.CodeItem) []mcode.CodeItem {
	if !mcode.HoldsLoop(body) {
		return body
	}
	need := mcode.LoopOverheadCycles + int64(mcode.CountAddrExprs(body, mcode.IUNumRegs))
	trailing := int64(0)
	if n := len(body); n > 0 {
		if st, ok := body[n-1].(*mcode.Straight); ok {
			trailing = int64(len(st.Instrs))
		}
	}
	if trailing >= need {
		return body
	}
	pad := nops(need - trailing)
	if trailing > 0 {
		st := body[len(body)-1].(*mcode.Straight)
		st.Instrs = append(st.Instrs, pad...)
		return body
	}
	return append(body, &mcode.Straight{Instrs: pad})
}
