package sim

import (
	"math"

	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/w2"
)

// lower.go lowers the decoded cell program once per run into the steps
// and ops the one-wide body (stepCell, issue) walks: everything a word
// decides statically — which fields issue and in what order, which codes
// are plain arithmetic, which queue fields break the rightward flow — is
// resolved here, so a cycle pays only for what the machine itself checks
// at run time: queues, addresses and loop signals.  How often a cell runs
// each word is static too, so the busy-cycle accounting is computed once
// from the program when the run ends (issueCounts), not on every cycle.

// opKind is what one op does.
type opKind uint8

const (
	opRecv      opKind = iota // dst ← the next word of channel x's queue, held
	opSend                    // register a onto channel x: the next cell's queue or the host
	opRecvRight               // a receive from the right: refused
	opSendLeft                // a send to the left: refused
	opLoad                    // dst ← the memory word memory port x's address names, held
	opStore                   // register a to memory port x's address, when the word's stores land
	opFadd                    // dst ← a + b, landing FPULatency later
	opFsub                    // dst ← a − b, likewise
	opFmul                    // dst ← a · b, likewise
	opMov                     // dst ← a, held
	opEval                    // dst ← code(a, b, c) by mcode.AluOp.Eval, landing FPULatency later
)

// op is one lowered field: 8 bytes.
type op struct {
	kind         opKind
	dst, a, b, c uint8
	code         uint8  // an opEval field's mcode.AluCode
	x            uint16 // channel or memory port
}

// step is one decoded word lowered: skip idle cycles (µPCs pc to
// pc+skip−1), then the issuing cycle (µPC pc+skip), which runs
// ops[lo:hi] and then the literal unless the word is a nop, then the
// loops it closes (the code's Ends[endLo:endHi]).  Steps and words are
// one to one, so the sequencer's word index is also the step's.
type step struct {
	skip         int64
	litVal       float64
	pc           int32
	lo, hi       int32
	endLo, endHi int32
	depth        int32
	nop, lit     bool
	litDst       uint8
}

// lowered is the op stream of a run.
type lowered struct {
	steps []step
	ops   []op
}

// reg narrows a register number to an op's byte.  One outside the file
// stays outside it, so the body faults on it as it did on the field.
func reg(r mcode.Reg) uint8 { return uint8(min(uint(r), math.MaxUint8)) }

// lower lowers the decoded program into the ops issue walks: per word its
// queue fields in the instruction's order, its memory ports in port
// order, then its ADD, MUL and move fields.  Two allocations, sized from
// the program.
func lower(code *mcode.Decoded) lowered {
	n := 0
	for i := range code.Words {
		w := &code.Words[i]
		n += int(w.IOHi - w.IOLo)
		for port := range w.Mem {
			if w.Mem[port].Kind != mcode.MemNone {
				n++
			}
		}
		for _, on := range [...]bool{w.HasAdd, w.HasMul, w.HasMov} {
			if on {
				n++
			}
		}
	}
	l := lowered{steps: make([]step, len(code.Words)), ops: make([]op, 0, n)}
	for i := range code.Words {
		w := &code.Words[i]
		s := &l.steps[i]
		*s = step{skip: w.Skip, pc: w.PC, endLo: w.EndLo, endHi: w.EndHi, depth: int32(w.Depth), nop: w.Nop,
			lo: int32(len(l.ops))}
		if w.HasLit {
			s.lit, s.litDst, s.litVal = true, reg(w.Lit.Dst), w.Lit.Value
		}
		// The sends and the receives, merged back into the instruction's
		// order.
		io := code.IO
		for snd, rcv := w.IOLo, w.RecvLo; snd < w.RecvLo || rcv < w.IOHi; {
			if rcv < w.IOHi && (snd == w.RecvLo || io[rcv].Ord < io[snd].Ord) {
				f := &io[rcv]
				rcv++
				o := op{kind: opRecv, dst: reg(f.Reg), x: uint16(f.Ch)}
				if f.Dir != w2.DirL {
					o.kind = opRecvRight
				}
				l.ops = append(l.ops, o)
				continue
			}
			f := &io[snd]
			snd++
			o := op{kind: opSend, a: reg(f.Reg), x: uint16(f.Ch)}
			if f.Dir != w2.DirR {
				o.kind = opSendLeft
			}
			l.ops = append(l.ops, o)
		}
		for port := range w.Mem {
			switch m := &w.Mem[port]; m.Kind {
			case mcode.MemNone:
			case mcode.MemStore:
				l.ops = append(l.ops, op{kind: opStore, a: reg(m.Reg), x: uint16(port)})
			default:
				l.ops = append(l.ops, op{kind: opLoad, dst: reg(m.Reg), x: uint16(port)})
			}
		}
		for _, f := range [...]struct {
			on bool
			op *mcode.AluOp
		}{{w.HasAdd, &w.Add}, {w.HasMul, &w.Mul}, {w.HasMov, &w.Mov}} {
			if !f.on {
				continue
			}
			o := op{dst: reg(f.op.Dst), a: reg(f.op.Src[0]), b: reg(f.op.Src[1]), c: reg(f.op.Src[2])}
			switch f.op.Code {
			case mcode.Mov:
				o.kind = opMov
			case mcode.Fadd:
				o.kind = opFadd
			case mcode.Fsub:
				o.kind = opFsub
			case mcode.Fmul:
				o.kind = opFmul
			default:
				o.kind, o.code = opEval, uint8(min(uint(f.op.Code), math.MaxUint8))
			}
			l.ops = append(l.ops, o)
		}
		s.hi = int32(len(l.ops))
	}
	return l
}

// issueCounts fills in what the cells of a finished run issued, which the
// program alone decides: every cell runs every word as often as the
// trip counts of the loops around it multiply to (a trip count below one
// counting once, as the sequencer's do-while loops run it), so each
// cell's busy cycles, FPU and memory operations, depth rows and per-µPC
// busy counters are the same sums over the words.  times is scratch
// space, one count per word.  The returned profile holds the per-cell
// totals; the idle split stays the cycle loop's.
func (m *machine) issueCounts(times []int64) obs.CellProfile {
	for i := range times {
		times[i] = 1
	}
	for j := range m.low.steps {
		s := &m.low.steps[j]
		for _, e := range m.code.Ends[s.endLo:s.endHi] {
			trips := max(e.Trips, 1)
			for k := e.Head; k <= j; k++ {
				times[k] *= trips
			}
		}
	}
	var tot obs.CellProfile
	c0 := &m.cells[0]
	for i := range m.code.Words {
		w, k := &m.code.Words[i], times[i]
		dp := &c0.depth[w.Depth]
		dp.Cycles += k * (w.Skip + 1)
		if w.Nop {
			continue
		}
		tot.Busy += k
		if c0.pcs != nil {
			c0.pcs.Busy[int(w.PC)+int(w.Skip)] = k
		}
		if w.HasAdd {
			tot.AddOps += k
			dp.AddOps += k
		}
		if w.HasMul {
			tot.MulOps += k
			dp.MulOps += k
		}
		if w.HasMov {
			tot.MovOps += k
		}
		for port := range w.Mem {
			switch w.Mem[port].Kind {
			case mcode.MemNone:
			case mcode.MemStore:
				tot.Stores += k
			default:
				tot.Loads += k
			}
		}
	}
	for i := 1; i < len(m.cells); i++ {
		c := &m.cells[i]
		copy(c.depth, c0.depth)
		if c.pcs != nil {
			copy(c.pcs.Busy, c0.pcs.Busy)
		}
	}
	return tot
}
