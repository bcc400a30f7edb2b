package sim

import (
	"errors"
	"fmt"

	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/w2"
)

// stepCell executes one cycle of one live cell: an idle cycle of the
// current step's skip, or the step's issuing cycle.  It reads only the
// lowered steps; the sequencer moves only at a word that closes a loop.
func (m *machine) stepCell(c *cell) error {
	if m.trace && m.now == c.start {
		m.rec.CellStart(m.now, c.idx)
	}
	steps := m.low.steps
	if c.PC >= len(steps) {
		// Only reachable for an empty program.
		m.finish(c)
		return nil
	}

	s := &steps[c.PC]
	if c.idled < s.skip {
		c.idle(m, int(s.pc)+int(c.idled))
		c.idled++
		return nil
	}
	c.idled = 0
	if s.nop {
		c.idle(m, int(s.pc)+int(s.skip))
	} else {
		if m.trace {
			m.traceIssue(c)
		}
		var err error
		if m.lanes == nil { // a run alone falls through to its issue
			err = m.issue(c, s)
		} else {
			err = m.issueLanes(c, &m.code.Words[c.PC])
		}
		if err != nil {
			return fmt.Errorf("cell %d: %w", c.idx, err)
		}
	}

	if s.endLo == s.endHi {
		c.PC++
	} else if err := m.closeLoops(c, s); err != nil {
		return err
	}
	if c.PC >= len(steps) {
		m.finish(c)
	}
	return nil
}

// closeLoops moves the sequencer past a word that closes loops: it pops
// one IU control signal per boundary crossed, innermost first, checks it
// against the sequencer's decision and forwards it down the array.
func (m *machine) closeLoops(c *cell, s *step) error {
	ends := m.code.Ends[s.endLo:s.endHi]
	crossed, again := c.Advance(int(s.depth), ends)
	for i := range ends[:crossed] {
		id, more := ends[i].ID, again && i == crossed-1
		sig, err := c.sig.pop()
		if err != nil {
			return fmt.Errorf("cell %d, loop L%d: %w", c.idx, id, err)
		}
		if sig.id != id || sig.more != more {
			return fmt.Errorf("cell %d: loop signal mismatch: sequencer at L%d(more=%v), IU sent L%d(more=%v)",
				c.idx, id, more, sig.id, sig.more)
		}
		if c.next != nil {
			if err := c.next.sig.push(sig); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish retires a cell on the cycle of its last instruction.
func (m *machine) finish(c *cell) {
	c.finish = m.now
	if m.trace {
		m.rec.CellFinish(m.now, c.idx)
	}
}

// idle attributes a cycle that issues nothing, at µPC pc: starvation
// when both data queues are empty (the upstream producer has not
// delivered) and a schedule bubble otherwise.
func (c *cell) idle(m *machine, pc int) {
	if c.in[w2.ChanX].n == 0 && c.in[w2.ChanY].n == 0 {
		c.starved++
		if c.pcs != nil {
			c.pcs.Starved[pc]++
		}
		if m.trace {
			m.rec.Stall(m.now, c.idx, obs.StallQueueEmpty)
		}
		return
	}
	c.bubble++
	if c.pcs != nil {
		c.pcs.Bubble[pc]++
	}
	if m.trace {
		m.rec.Stall(m.now, c.idx, obs.StallBubble)
	}
}

// traceIssue reports the FPU fields of the word the cell issues to the
// recorder, before the word's queue and memory events.
func (m *machine) traceIssue(c *cell) {
	w := &m.code.Words[c.PC]
	if w.HasAdd {
		m.rec.Issue(m.now, c.idx, obs.UnitAdd)
	}
	if w.HasMul {
		m.rec.Issue(m.now, c.idx, obs.UnitMul)
	}
	if w.HasMov {
		m.rec.Issue(m.now, c.idx, obs.UnitMov)
	}
}

// Rightward flow only: the texts of a queue field the machine refuses.
var (
	errRecvRight = errors.New("sim: receive from the right is not supported (rightward flow only)")
	errSendLeft  = errors.New("sim: send to the left is not supported (rightward flow only)")
)

// issue executes the ops of the step the cell issues (c.PC), its writes
// landing in the order of mcode.CellRegs, the model the fast executor
// steps too: queue fields in the instruction's order, memory ports in
// port order, then the ADD, MUL and move fields, as the recorder sees
// them.  Addresses pop from the Adr queue and are forwarded
// systolically to the next cell; the bound address terms are never
// read, the IU's stream is what the simulator checks.
func (m *machine) issue(c *cell, s *step) error {
	next, r := c.next, &c.regs
	r.Land(m.now) // FPU results that landed during idle cycles
	// The word's stores, landing at the end of the cycle in port order.
	var stores [mcode.MemPorts]struct {
		addr int64
		reg  uint8
	}
	nst := 0
	for i := s.lo; i < s.hi; i++ {
		switch o := &m.low.ops[i]; o.kind {
		case opRecv:
			q := &c.in[o.x]
			v, err := q.pop()
			if err != nil {
				return err
			}
			recPop(m, q)
			r.Hold(mcode.Reg(o.dst), v)
		case opSend:
			v := r.R[o.a]
			if next != nil {
				q := &next.in[o.x]
				if err := q.push(v); err != nil {
					return err
				}
				recPush(m, q)
			} else if err := m.hostCollect(w2.Channel(o.x), v); err != nil {
				return err
			}
		case opRecvRight:
			return errRecvRight
		case opSendLeft:
			return errSendLeft
		case opLoad, opStore:
			addr, err := c.adr.pop()
			if err != nil {
				return err
			}
			recPop(m, &c.adr)
			if next != nil {
				if err := next.adr.push(addr); err != nil {
					return err
				}
				recPush(m, &next.adr)
			}
			if addr < 0 || addr >= int64(len(c.mem)) {
				return fmt.Errorf("sim: address %d outside the %d-word cell memory (IU generated a bad address for %s)",
					addr, len(c.mem), m.cfg.Cell.MemAddr(&m.code.Words[c.PC], int(o.x)))
			}
			store := o.kind == opStore
			if store {
				stores[nst].addr, stores[nst].reg = addr, o.a
				nst++
			} else {
				r.Hold(mcode.Reg(o.dst), c.mem[addr]) // read before the word's stores land
			}
			if m.trace {
				m.rec.MemRef(m.now, c.idx, int(o.x), addr, store)
			}
		case opFadd:
			r.PushAt(mcode.Reg(o.dst), r.R[o.a]+r.R[o.b], m.now+mcode.FPULatency)
		case opFsub:
			r.PushAt(mcode.Reg(o.dst), r.R[o.a]-r.R[o.b], m.now+mcode.FPULatency)
		case opFmul:
			r.PushAt(mcode.Reg(o.dst), r.R[o.a]*r.R[o.b], m.now+mcode.FPULatency)
		case opMov:
			r.Hold(mcode.Reg(o.dst), r.R[o.a])
		case opEval:
			f := mcode.AluOp{Code: mcode.AluCode(o.code), Src: [3]mcode.Reg{mcode.Reg(o.a), mcode.Reg(o.b), mcode.Reg(o.c)}}
			v, err := f.Eval(&r.R)
			if err != nil {
				return fmt.Errorf("sim: %w", err)
			}
			r.PushAt(mcode.Reg(o.dst), v, m.now+mcode.FPULatency)
		}
	}
	// Nothing has written a register yet.
	for _, st := range stores[:nst] {
		c.mem[st.addr] = r.R[st.reg]
	}
	r.Land(m.now + 1)
	r.Commit()
	if s.lit {
		r.R[s.litDst] = s.litVal
	}
	return nil
}
