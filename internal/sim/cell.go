package sim

import (
	"fmt"

	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/w2"
)

// stepCell executes one cycle of one live cell.
func (m *machine) stepCell(c *cell) error {
	if m.trace && m.now == c.start {
		m.rec.CellStart(m.now, c.idx)
	}
	if c.PC >= len(m.prog) {
		// Only reachable for an empty program.
		m.finish(c)
		return nil
	}

	// Register writes and memory stores landing this cycle become
	// visible before any read.
	slot := &c.wheel[uint64(m.now)%wheelSlots]
	for _, w := range *slot {
		c.regs[w.reg] = w.val
	}
	*slot = (*slot)[:0]
	for _, w := range c.stores[:c.pending] {
		c.mem[w.addr] = w.val
	}
	c.pending = 0

	pc := c.PC
	in := &m.prog[pc]
	crossed, again := c.Advance(in.Depth, in.Ends)

	c.account(m, in, pc)
	if err := m.execCellInstr(c, in.Instr); err != nil {
		return fmt.Errorf("cell %d: %w", c.idx, err)
	}

	// Loop boundaries: pop one IU control signal per boundary,
	// innermost first, and forward it down the array.
	for i := range in.Ends[:crossed] {
		id, more := in.Ends[i].ID, again && i == crossed-1
		s, err := c.sig.pop()
		if err != nil {
			return fmt.Errorf("cell %d, loop L%d: %w", c.idx, id, err)
		}
		if s.id != id || s.more != more {
			return fmt.Errorf("cell %d: loop signal mismatch: sequencer at L%d(more=%v), IU sent L%d(more=%v)",
				c.idx, id, more, s.id, s.more)
		}
		if c.idx+1 < len(m.cells) {
			if err := m.cells[c.idx+1].sig.push(s); err != nil {
				return err
			}
		}
	}

	if c.PC >= len(m.prog) {
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

// account attributes the cycle: a busy cycle issues at least one field;
// a scheduled nop is starvation when both data queues are empty (the
// upstream producer has not delivered) and a schedule bubble otherwise.
// FPU issues are also attributed to the instruction's loop depth, which
// is what lets the utilization report isolate the innermost loop (§7).
func (c *cell) account(m *machine, in *mcode.CellWord, pc int) {
	dp := &c.depth[in.Depth]
	dp.Cycles++
	if in.Nop {
		if c.in[w2.ChanX].n == 0 && c.in[w2.ChanY].n == 0 {
			c.starved++
			if c.pcs != nil {
				c.pcs.Starved[pc]++
			}
			if m.trace {
				m.rec.Stall(m.now, c.idx, obs.StallQueueEmpty)
			}
		} else {
			c.bubble++
			if c.pcs != nil {
				c.pcs.Bubble[pc]++
			}
			if m.trace {
				m.rec.Stall(m.now, c.idx, obs.StallBubble)
			}
		}
		return
	}
	if in.Add != nil {
		c.addOps++
		dp.AddOps++
	}
	if in.Mul != nil {
		c.mulOps++
		dp.MulOps++
	}
	if in.Mov != nil {
		c.movOps++
	}
	c.busy++
	if c.pcs != nil {
		c.pcs.Busy[pc]++
	}
	if m.trace {
		if in.Add != nil {
			m.rec.Issue(m.now, c.idx, obs.UnitAdd)
		}
		if in.Mul != nil {
			m.rec.Issue(m.now, c.idx, obs.UnitMul)
		}
		if in.Mov != nil {
			m.rec.Issue(m.now, c.idx, obs.UnitMov)
		}
	}
}

// land schedules a register write for lat cycles from now.
func (c *cell) land(now, lat int64, reg mcode.Reg, val float64) {
	slot := &c.wheel[uint64(now+lat)%wheelSlots]
	*slot = append(*slot, regWrite{reg: reg, val: val})
}

func (m *machine) execCellInstr(c *cell, in *mcode.Instr) error {
	var next *cell // downstream neighbour; nil for the last cell
	if c.idx+1 < len(m.cells) {
		next = &m.cells[c.idx+1]
	}

	// Queue operations.
	for _, io := range in.IO {
		ch := w2.ChanX
		if io.Chan == w2.ChanY {
			ch = w2.ChanY
		}
		if io.Recv {
			if io.Dir != w2.DirL {
				return fmt.Errorf("sim: receive from the right is not supported (rightward flow only)")
			}
			q := &c.in[ch]
			v, err := q.pop()
			if err != nil {
				return err
			}
			recPop(m, q)
			c.land(m.now, 1, io.Reg, v)
		} else {
			if io.Dir != w2.DirR {
				return fmt.Errorf("sim: send to the left is not supported (rightward flow only)")
			}
			v := c.regs[io.Reg]
			if next != nil {
				q := &next.in[ch]
				if err := q.push(v); err != nil {
					return err
				}
				recPush(m, q)
			} else if err := m.hostCollect(ch, v); err != nil {
				return err
			}
		}
	}

	// Memory references: addresses pop from the Adr queue and are
	// forwarded systolically to the next cell.
	for port, mo := range in.Mem {
		if mo == nil {
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
				addr, len(c.mem), mo.Addr)
		}
		if mo.Store {
			c.nStores++
			c.stores[c.pending] = memWrite{addr: addr, val: c.regs[mo.Reg]}
			c.pending++
		} else {
			c.nLoads++
			c.land(m.now, 1, mo.Reg, c.mem[addr])
		}
		if m.trace {
			m.rec.MemRef(m.now, c.idx, port, addr, mo.Store)
		}
	}

	// FPU fields (counted in account, which ran before us): each result
	// register write is scheduled at the unit's latency.  One block per
	// field on purpose: ranging over an array of the three costs 5% of the
	// whole run here and 10% in the fast executor.
	if op := in.Add; op != nil {
		v, err := op.Eval(&c.regs)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		c.land(m.now, op.Code.Latency(), op.Dst, v)
	}
	if op := in.Mul; op != nil {
		v, err := op.Eval(&c.regs)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		c.land(m.now, op.Code.Latency(), op.Dst, v)
	}
	if op := in.Mov; op != nil {
		v, err := op.Eval(&c.regs)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		c.land(m.now, op.Code.Latency(), op.Dst, v)
	}

	if in.Lit != nil {
		c.land(m.now, 1, in.Lit.Dst, in.Lit.Value)
	}
	return nil
}
