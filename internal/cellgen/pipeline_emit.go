package cellgen

import (
	"warp/internal/ir"
	"warp/internal/mcode"
)

// This file materializes a modulo schedule into prologue, kernel and
// epilogue code with modulo variable expansion.

// emitReject is why emitModulo turned a schedule down.
type emitReject int

const (
	emitOK          emitReject = iota
	rejectRegisters            // the values' registers, one per kernel copy, exceed the temporary pool
	rejectTrips                // fewer iterations than the pipeline's stages plus one unrolled kernel
	numEmitRejects
)

// emitModulo turns a kernel schedule into code items.  A reject other
// than emitOK sends the caller to a larger II or the fallback.
func (g *gen) emitModulo(r *ir.LoopRegion, ms *moduloResult) ([]mcode.CodeItem, emitReject, error) {
	ii, trips := ms.ii, r.Trips()
	lastUse := lastUses(ms.nodes, ms.off)

	// Unroll degree: enough copies that a value's register is not
	// redefined while the previous iteration's value is still live.
	u := int64(1)
	for v, last := range lastUse {
		life := last - ms.off[v] + 1
		u = max(u, (life+ii-1)/ii)
	}

	// Register demand: one register per value per copy (sound without
	// circular-interval analysis).
	values := int64(len(lastUse))
	if values*u > int64(mcode.NumRegs-g.tempBase) {
		return nil, rejectRegisters, nil
	}

	// Shape: S pipeline stages, R kernel repetitions.
	s := (ms.span + ii - 1) / ii
	p := (s - 1) * ii
	rReps := (trips - (s - 1)) / u
	if rReps < 1 {
		return nil, rejectTrips, nil
	}
	kernelLen := u * ii
	kernelEnd := p + rReps*kernelLen
	flatEnd := (trips-1)*ii + ms.span

	// Register map: copy c of the i-th value (in schedule order) is
	// tempBase + c·values + i.
	regs := make(map[*ir.Node]mcode.Reg, values)
	for _, n := range ms.nodes {
		if needsReg(n) {
			regs[n] = mcode.Reg(g.tempBase + len(regs))
		}
	}
	e := emitter{g: g, nodes: ms.nodes, at: ms.off, ii: ii, trips: trips,
		regs: regs, copies: u, stride: values, loop: r.Loop, lo: r.Lo}
	prologue, err := e.emitRange(0, p)
	if err != nil {
		return nil, emitOK, err
	}
	// Kernel body: the first repetition's instances.
	e.kernel = true
	kernel, err := e.emitRange(p, p+kernelLen)
	if err != nil {
		return nil, emitOK, err
	}
	e.kernel = false
	epilogue, err := e.emitRange(kernelEnd, flatEnd)
	if err != nil {
		return nil, emitOK, err
	}

	id := g.loopID
	g.loopID++
	var items []mcode.CodeItem
	if len(prologue) > 0 {
		items = append(items, &mcode.Straight{Instrs: prologue})
	}
	items = append(items, &mcode.LoopItem{
		ID:    id,
		Trips: rReps,
		Body:  []mcode.CodeItem{&mcode.Straight{Instrs: kernel}},
		Src:   r.Loop,
		First: r.Lo,
		Step:  u,
	})
	if len(epilogue) > 0 {
		items = append(items, &mcode.Straight{Instrs: epilogue})
	}
	return items, emitOK, nil
}
