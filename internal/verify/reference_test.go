package verify

import (
	"fmt"

	"warp/internal/mcode"
)

// The register hazard check as it was before it reused the walks of
// repeated entry states, kept verbatim as the reference
// TestHazardsMatchReference holds checkHazards to: the same diagnostics,
// in the same order, and the same number suppressed.

type refHazardChecker struct {
	regs [mcode.NumRegs]regState
	col  *collector
}

// walkItems walks items from cycle t, their first instruction being µPC
// pc (listing order), and returns the cycle and µPC after them.
func (h *refHazardChecker) walkItems(items []mcode.CodeItem, t int64, pc int) (int64, int) {
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
func (h *refHazardChecker) instr(in *mcode.Instr, t int64, pc int) {
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
	readAlu := func(on bool, op *mcode.AluOp, field string) {
		if !on {
			return
		}
		for i := 0; i < op.Code.NumOperands(); i++ {
			read(op.Src[i], field, op)
		}
	}
	readAlu(in.HasAdd, &in.Add, "add")
	readAlu(in.HasMul, &in.Mul, "mul")
	readAlu(in.HasMov, &in.Mov, "mov")
	for _, m := range in.Mem {
		if m.Kind == mcode.MemStore {
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
	for _, f := range [...]struct {
		on bool
		op *mcode.AluOp
	}{{in.HasAdd, &in.Add}, {in.HasMul, &in.Mul}, {in.HasMov, &in.Mov}} {
		if f.on {
			write(f.op.Dst, f.op.Code.Latency())
		}
	}
	for _, m := range in.Mem {
		if m.Kind == mcode.MemLoad {
			write(m.Reg, 1)
		}
	}
	for _, io := range in.IO {
		if io.Recv {
			write(io.Reg, 1)
		}
	}
	if in.HasLit {
		write(in.Lit.Dst, 1)
	}
}
