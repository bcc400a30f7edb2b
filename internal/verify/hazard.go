package verify

import (
	"fmt"

	"warp/internal/mcode"
)

// hazard.go proves the absence of register hazards by abstract
// interpretation over write times: for every register it tracks the
// issue cycle and latency of the last write, and checks that every read
// happens only after that write has landed (issue + latency ≤ read
// cycle).  FPU results take FPULatency (5) cycles; moves, literals,
// loads and receives land the next cycle.  A read of a register with a
// write still in flight would observe the stale previous value — with
// modulo variable expansion in the scheduler (registers renamed per
// overlapped copy), any such read is a scheduling bug, not an intended
// old-value read.  A read racing the register's first-ever write is
// classified def-before-use; racing a redefinition is an FPU-latency
// hazard.
//
// Reading a register that is never written beforehand is NOT a
// violation: the machine clears the register file at start, and the
// compiler relies on that for source variables read before assignment
// (both the simulator and the reference interpreter define them as 0).
//
// Loops are not unrolled: the first two iterations are walked at
// absolute cycles, then the clock and the in-loop write times jump by
// (trips−2)·bodyLen.  This is exhaustive because iteration k ≥ 1 is a
// cycle-exact translate of iteration 1 — every write in iteration k−1
// recurs in iteration k at the same relative distance, so read/write
// distances are constant from iteration 1 on, and registers last
// written before the loop only age (grow safer) with k.
//
// Nor is a body walked twice from one entry state.  What a walk of a
// loop body finds depends only on the state it starts from as seen from
// its first cycle: which registers were written before, and which writes
// are still in flight, with their age (capped at the latency: a write
// that has landed can no longer race anything) and whether they are
// their register's first.  A diagnostic-free walk of a body holding a
// loop is remembered with that entry state, and a later iteration of the
// same loop entered in the same state applies its writes shifted in time
// instead of walking again.  Without it a nest of 2-trip loops — FFT's
// bit-reversal recursion — would cost 2^depth walks of its innermost
// body, since every level walks both of its iterations.

type regState struct {
	written bool
	first   bool // the in-state write is the register's first ever
	issue   int64
	lat     int64
}

type hazardChecker struct {
	regs [mcode.NumRegs]regState
	col  *collector
	// The diagnostic-free walks of loop bodies holding a loop, and the
	// writes they leave behind: walks[i] wrote writes[w.writes0:w.writes1].
	walks          [maxWalks]bodyWalk
	writes         [maxWalkWrites]bodyWrite
	nwalks, nwrite int
	// visited counts the instructions checked (for the tests).
	visited int64
}

// bodyWalk is one walk of a loop's body from an entry state: the
// registers written before it and the writes still in flight at its
// first cycle, as seen from that cycle.
type bodyWalk struct {
	loop    *mcode.LoopItem
	written uint64
	flight  [maxFlight]bodyWrite
	nflight int
	// What the walk did: its length, the µPC after it, and the last write
	// of every register it wrote.
	cycles           int64
	pc               int
	writes0, writes1 int
}

// bodyWrite is a register's last write, at cycle at relative to a
// body's first cycle.
type bodyWrite struct {
	reg   mcode.Reg
	first bool
	at    int64
	lat   int64
}

// Bounds on what a hazard check remembers, all of it in the checker
// itself: past them a body is walked, as when no earlier walk matches.
// An entry state holds at most two FPU results a cycle over the
// latency's four cycles in flight.
const (
	maxWalks      = 32
	maxWalkWrites = 256
	maxFlight     = 2 * (mcode.FPULatency - 1)
)

// checkHazards runs the analysis over the whole cell program.  All
// cells run the same program, so one pass covers the array; reported
// diagnostics use cell -1.
func checkHazards(p *mcode.CellProgram, col *collector) {
	h := &hazardChecker{col: col}
	h.walkItems(p.Items, 0, 0)
}

// walkItems walks items from cycle t, their first instruction being µPC
// pc (listing order), and returns the cycle and µPC after them.
func (h *hazardChecker) walkItems(items []mcode.CodeItem, t int64, pc int) (int64, int) {
	for _, it := range items {
		switch it := it.(type) {
		case *mcode.Straight:
			for _, in := range it.Instrs {
				h.instr(in, t, pc)
				t++
				pc++
			}
		case *mcode.LoopItem:
			iters := min(it.Trips, 2)
			head, end, t0 := pc, pc, t
			for k := int64(0); k < iters; k++ {
				t, end = h.iter(it, t, head)
			}
			bodyLen := (t - t0) / max(iters, 1)
			pc = end
			if it.Trips > 2 {
				shift := (it.Trips - 2) * bodyLen
				// Writes from the walked iteration 1 recur every
				// iteration; their last occurrence is shift cycles later.
				iter1Start := t - bodyLen
				for r := range h.regs {
					if h.regs[r].written && h.regs[r].issue >= iter1Start {
						h.regs[r].issue += shift
					}
				}
				t += shift
			}
		}
	}
	return t, pc
}

// iter walks one iteration of loop it from cycle t, its body's first
// instruction being µPC pc, or applies the writes of an earlier walk
// from the same entry state, shifted to t (see the file comment).  Only
// a body holding a loop is worth remembering.
func (h *hazardChecker) iter(it *mcode.LoopItem, t int64, pc int) (int64, int) {
	if !mcode.HoldsLoop(it.Body) {
		return h.walkItems(it.Body, t, pc)
	}
	entry, ok := h.entry(it, t)
	if !ok {
		return h.walkItems(it.Body, t, pc)
	}
	for i := range h.nwalks {
		w := &h.walks[i]
		if w.loop != it || w.written != entry.written || w.flight != entry.flight {
			continue
		}
		for _, wr := range h.writes[w.writes0:w.writes1] {
			h.regs[wr.reg] = regState{written: true, first: wr.first, issue: t + wr.at, lat: wr.lat}
		}
		return t + w.cycles, w.pc
	}
	diags, dropped := len(h.col.diags), h.col.dropped
	end, endPC := h.walkItems(it.Body, t, pc)
	if len(h.col.diags) != diags || h.col.dropped != dropped || h.nwalks == maxWalks {
		return end, endPC
	}
	entry.cycles, entry.pc, entry.writes0 = end-t, endPC, h.nwrite
	for r, st := range h.regs {
		if st.written && st.issue >= t {
			if h.nwrite == maxWalkWrites {
				h.nwrite = entry.writes0
				return end, endPC
			}
			h.writes[h.nwrite] = bodyWrite{reg: mcode.Reg(r), first: st.first, at: st.issue - t, lat: st.lat}
			h.nwrite++
		}
	}
	entry.writes1 = h.nwrite
	h.walks[h.nwalks] = entry
	h.nwalks++
	return end, endPC
}

// entry returns the register state at cycle t as a walk of loop it from
// t sees it; ok is false when more than maxFlight writes are in flight.
func (h *hazardChecker) entry(it *mcode.LoopItem, t int64) (w bodyWalk, ok bool) {
	w.loop = it
	for r, st := range h.regs {
		if !st.written {
			continue
		}
		w.written |= 1 << r
		if st.issue+st.lat > t {
			if w.nflight == maxFlight {
				return w, false
			}
			w.flight[w.nflight] = bodyWrite{reg: mcode.Reg(r), first: st.first, at: st.issue - t, lat: st.lat}
			w.nflight++
		}
	}
	return w, true
}

// instr checks one microinstruction, µPC pc, at absolute cycle t: reads
// against the current write states, then the cycle's own writes.
func (h *hazardChecker) instr(in *mcode.Instr, t int64, pc int) {
	h.visited++
	// read checks one operand; op names the ALU operation reading it
	// (nil for a store or a send), spelled out only in a diagnostic.
	read := func(r mcode.Reg, field string, op *mcode.AluOp) {
		st := h.regs[r]
		if !st.written {
			// Implicit zero initialization: defined, not a violation.
			return
		}
		if st.issue < t && st.issue+st.lat > t {
			inv, kind := InvFPULatency, "producing"
			if st.first {
				inv, kind = InvDefBeforeUse, "first defining"
			}
			what := field
			if op != nil {
				what += " " + op.Code.String()
			}
			h.col.add(Diagnostic{
				Invariant: inv, Cell: -1, Instr: pc, Loop: -1,
				Detail: fmt.Sprintf("%s reads %s at cycle %d, but the %s write (cycle %d, latency %d) lands only at cycle %d",
					what, r, t, kind, st.issue, st.lat, st.issue+st.lat),
			})
		}
	}
	alus := [...]struct {
		on    bool
		op    *mcode.AluOp
		field string
	}{{in.HasAdd, &in.Add, "add"}, {in.HasMul, &in.Mul, "mul"}, {in.HasMov, &in.Mov, "mov"}}
	for _, a := range alus {
		for i := 0; a.on && i < a.op.Code.NumOperands(); i++ {
			read(a.op.Src[i], a.field, a.op)
		}
	}
	for i := range in.Mem {
		if m := &in.Mem[i]; m.Kind == mcode.MemStore {
			read(m.Reg, "store", nil)
		}
	}
	for i := range in.IO {
		if io := &in.IO[i]; !io.Recv {
			read(io.Reg, "send", nil)
		}
	}

	// The cycle's writes, in field order: ADD, MUL, MOV, loads, receives,
	// the literal.
	var seen uint64 // registers written so far this cycle
	write := func(r mcode.Reg, lat int64) {
		if seen>>r&1 != 0 {
			h.col.add(Diagnostic{
				Invariant: InvStructure, Cell: -1, Instr: pc, Loop: -1,
				Detail: fmt.Sprintf("two fields write %s in the same cycle (%d)", r, t),
			})
		}
		seen |= 1 << r
		if st := h.regs[r]; st.written && st.issue < t && st.issue+st.lat > t+lat {
			// An earlier in-flight result would land after (and clobber)
			// this newer value — a write-ordering inversion.
			h.col.add(Diagnostic{
				Invariant: InvFPULatency, Cell: -1, Instr: pc, Loop: -1,
				Detail: fmt.Sprintf("write to %s at cycle %d lands before the still-in-flight write of cycle %d (latency %d)",
					r, t, st.issue, st.lat),
			})
		}
		h.regs[r] = regState{written: true, first: !h.regs[r].written, issue: t, lat: lat}
	}
	for _, a := range alus {
		if a.on {
			write(a.op.Dst, a.op.Code.Latency())
		}
	}
	for i := range in.Mem {
		if m := &in.Mem[i]; m.Kind == mcode.MemLoad {
			write(m.Reg, 1)
		}
	}
	for i := range in.IO {
		if io := &in.IO[i]; io.Recv {
			write(io.Reg, 1)
		}
	}
	if in.HasLit {
		write(in.Lit.Dst, 1)
	}
}
