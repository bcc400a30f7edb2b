package sim

import (
	"fmt"

	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/w2"
)

// stepCell executes one cycle of one live cell: an idle cycle of the
// current word's skip, or the word itself.
func (m *machine) stepCell(c *cell) error {
	if m.trace && m.now == c.start {
		m.rec.CellStart(m.now, c.idx)
	}
	words := m.code.Words
	if c.PC >= len(words) {
		// Only reachable for an empty program.
		m.finish(c)
		return nil
	}

	w := &words[c.PC]
	if c.idled < w.Skip {
		c.idle(m, w.Depth, int(w.PC)+int(c.idled))
		c.idled++
		return nil
	}
	c.idled = 0
	pc := int(w.PC) + int(w.Skip)
	ends := m.code.Ends[w.EndLo:w.EndHi]
	crossed, again := c.Advance(w.Depth, ends)
	if w.Nop {
		c.idle(m, w.Depth, pc)
	} else {
		c.account(m, w, pc)
		var err error
		if m.lanes == nil { // a run alone falls through to its issue
			err = m.issue(c, w)
		} else {
			err = m.issueLanes(c, w)
		}
		if err != nil {
			return fmt.Errorf("cell %d: %w", c.idx, err)
		}
	}

	// Loop boundaries: pop one IU control signal per boundary,
	// innermost first, and forward it down the array.
	for i := range ends[:crossed] {
		id, more := ends[i].ID, again && i == crossed-1
		s, err := c.sig.pop()
		if err != nil {
			return fmt.Errorf("cell %d, loop L%d: %w", c.idx, id, err)
		}
		if s.id != id || s.more != more {
			return fmt.Errorf("cell %d: loop signal mismatch: sequencer at L%d(more=%v), IU sent L%d(more=%v)",
				c.idx, id, more, s.id, s.more)
		}
		if c.next != nil {
			if err := c.next.sig.push(s); err != nil {
				return err
			}
		}
	}

	if c.PC >= len(words) {
		m.finish(c)
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
func (c *cell) idle(m *machine, depth, pc int) {
	c.depth[depth].Cycles++
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

// account attributes a busy cycle, at µPC pc.  FPU issues are also
// attributed to the word's loop depth, which is what lets the
// utilization report isolate the innermost loop (§7).
func (c *cell) account(m *machine, w *mcode.Word, pc int) {
	dp := &c.depth[w.Depth]
	dp.Cycles++
	c.busy++
	if c.pcs != nil {
		c.pcs.Busy[pc]++
	}
	if w.HasAdd {
		c.addOps++
		dp.AddOps++
		if m.trace {
			m.rec.Issue(m.now, c.idx, obs.UnitAdd)
		}
	}
	if w.HasMul {
		c.mulOps++
		dp.MulOps++
		if m.trace {
			m.rec.Issue(m.now, c.idx, obs.UnitMul)
		}
	}
	if w.HasMov {
		c.movOps++
		if m.trace {
			m.rec.Issue(m.now, c.idx, obs.UnitMov)
		}
	}
}

// issue executes the word's fields, its writes landing in the order of
// mcode.CellRegs, the model the fast executor steps too.  Queue fields
// run in the instruction's order and memory fields in port order, as the
// recorder sees them.
func (m *machine) issue(c *cell, w *mcode.Word) error {
	next, r := c.next, &c.regs
	r.Land(m.now) // FPU results that landed during idle cycles
	// Queue fields: the sends and the receives, merged back into the
	// instruction's order.
	fields := m.code.IO
	for s, rv := w.IOLo, w.RecvLo; s < w.RecvLo || rv < w.IOHi; {
		if rv < w.IOHi && (s == w.RecvLo || fields[rv].Ord < fields[s].Ord) {
			io := &fields[rv]
			rv++
			if io.Dir != w2.DirL {
				return fmt.Errorf("sim: receive from the right is not supported (rightward flow only)")
			}
			q := &c.in[io.Ch]
			v, err := q.pop()
			if err != nil {
				return err
			}
			recPop(m, q)
			r.Hold(io.Reg, v)
			continue
		}
		io := &fields[s]
		s++
		if io.Dir != w2.DirR {
			return fmt.Errorf("sim: send to the left is not supported (rightward flow only)")
		}
		v := r.R[io.Reg]
		if next != nil {
			q := &next.in[io.Ch]
			if err := q.push(v); err != nil {
				return err
			}
			recPush(m, q)
		} else if err := m.hostCollect(io.Ch, v); err != nil {
			return err
		}
	}

	// Memory references: addresses pop from the Adr queue and are
	// forwarded systolically to the next cell.  The bound address terms
	// are never read: the IU's stream is what the simulator checks.
	var addrs [mcode.MemPorts]int64
	for port := range w.Mem {
		mf := &w.Mem[port]
		if mf.Kind == mcode.MemNone {
			continue
		}
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
				addr, len(c.mem), m.cfg.Cell.MemAddr(w, port))
		}
		addrs[port] = addr
		store := mf.Kind == mcode.MemStore
		if store {
			c.nStores++
		} else {
			c.nLoads++
			r.Hold(mf.Reg, c.mem[addr]) // read before the word's stores land
		}
		if m.trace {
			m.rec.MemRef(m.now, c.idx, port, addr, store)
		}
	}

	// FPU fields (counted in account, which ran before us), one block
	// each: a loop over the three costs more than the fields.
	if w.HasAdd {
		v, err := w.Add.Eval(&r.R)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		r.Push(&w.Add, v, m.now)
	}
	if w.HasMul {
		v, err := w.Mul.Eval(&r.R)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		r.Push(&w.Mul, v, m.now)
	}
	if w.HasMov {
		v, err := w.Mov.Eval(&r.R)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		r.Push(&w.Mov, v, m.now)
	}

	// Stores land at the end of the cycle, in port order; nothing has
	// written a register yet.
	for port := range w.Mem {
		if mf := &w.Mem[port]; mf.Kind == mcode.MemStore {
			c.mem[addrs[port]] = r.R[mf.Reg]
		}
	}
	r.Land(m.now + 1)
	r.Retire(w)
	return nil
}
