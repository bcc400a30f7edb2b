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

type regState struct {
	written bool
	first   bool // the in-state write is the register's first ever
	issue   int64
	lat     int64
}

type hazardChecker struct {
	regs [mcode.NumRegs]regState
	col  *collector
}

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
				t, end = h.walkItems(it.Body, t, head)
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

// instr checks one microinstruction, µPC pc, at absolute cycle t: reads
// against the current write states, then the cycle's own writes.
func (h *hazardChecker) instr(in *mcode.Instr, t int64, pc int) {
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
	readAlu := func(op *mcode.AluOp, field string) {
		if op == nil {
			return
		}
		for i := 0; i < op.Code.NumOperands(); i++ {
			read(op.Src[i], field, op)
		}
	}
	readAlu(in.Add, "add")
	readAlu(in.Mul, "mul")
	readAlu(in.Mov, "mov")
	for _, m := range in.Mem {
		if m != nil && m.Store {
			read(m.Reg, "store", nil)
		}
	}
	for _, io := range in.IO {
		if !io.Recv {
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
	for _, op := range [...]*mcode.AluOp{in.Add, in.Mul, in.Mov} {
		if op != nil {
			write(op.Dst, op.Code.Latency())
		}
	}
	for _, m := range in.Mem {
		if m != nil && !m.Store {
			write(m.Reg, 1)
		}
	}
	for _, io := range in.IO {
		if io.Recv {
			write(io.Reg, 1)
		}
	}
	if in.Lit != nil {
		write(in.Lit.Dst, 1)
	}
}
