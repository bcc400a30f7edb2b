package sim

import (
	"errors"
	"fmt"

	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/w2"
)

// stepCell executes one cycle of one live cell: an idle cycle of the
// current word's skip, or the word's issuing cycle.  It reads only the
// compact words; the sequencer moves only at a word that closes a loop.
func (g *group) stepCell(c *cell) error {
	if g.trace && g.now == c.start {
		g.rec.CellStart(g.now, c.idx)
	}
	words := g.code.Words
	if c.PC >= len(words) {
		// Only reachable for an empty program.
		g.finish(c)
		return nil
	}

	w := &words[c.PC]
	if c.idled < int64(w.Skip) {
		c.idle(g, int(w.PC)+int(c.idled))
		c.idled++
		return nil
	}
	c.idled = 0
	if w.Nop {
		c.idle(g, int(w.PC)+int(w.Skip))
	} else {
		if g.trace {
			g.traceIssue(c)
		}
		var err error
		if g.lanes == nil { // a run alone falls through to its issue
			err = g.issue(c, w)
		} else {
			err = g.issueLanes(c, w)
		}
		if err != nil {
			return fmt.Errorf("cell %d: %w", c.idx, err)
		}
	}

	if w.EndLo == w.EndHi {
		c.PC++
	} else if err := g.closeLoops(c, w); err != nil {
		return err
	}
	if c.PC >= len(words) {
		g.finish(c)
	}
	return nil
}

// closeLoops moves the sequencer past a word that closes loops: it pops
// one IU control signal per boundary crossed, innermost first, checks it
// against the sequencer's decision and forwards it down the array.
func (g *group) closeLoops(c *cell, w *mcode.Word) error {
	ends := g.code.Ends[w.EndLo:w.EndHi]
	crossed, again := c.Advance(int(w.Depth), ends)
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
		} else if c.out != nil {
			word := int64(sig.id) << 1
			if sig.more {
				word |= 1
			}
			if err := g.cross(c.out, crossSig, word, 0, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish retires a cell on the cycle of its last instruction.
func (g *group) finish(c *cell) {
	c.finish = g.now
	if g.trace {
		g.rec.CellFinish(g.now, c.idx)
	}
}

// idle attributes a cycle that issues nothing, at µPC pc: starvation
// when both data queues are empty (the upstream producer has not
// delivered) and a schedule bubble otherwise.
func (c *cell) idle(g *group, pc int) {
	if c.in[w2.ChanX].n == 0 && c.in[w2.ChanY].n == 0 {
		c.starved++
		if c.pcs != nil {
			c.pcs.Starved[pc]++
		}
		if g.trace {
			g.rec.Stall(g.now, c.idx, obs.StallQueueEmpty)
		}
		return
	}
	c.bubble++
	if c.pcs != nil {
		c.pcs.Bubble[pc]++
	}
	if g.trace {
		g.rec.Stall(g.now, c.idx, obs.StallBubble)
	}
}

// traceIssue reports the FPU fields of the word the cell issues to the
// recorder, before the word's queue and memory events.
func (g *group) traceIssue(c *cell) {
	w := &g.code.Words[c.PC]
	if w.HasAdd {
		g.rec.Issue(g.now, c.idx, obs.UnitAdd)
	}
	if w.HasMul {
		g.rec.Issue(g.now, c.idx, obs.UnitMul)
	}
	if w.HasMov {
		g.rec.Issue(g.now, c.idx, obs.UnitMov)
	}
}

// Rightward flow only: the texts of a queue field the machine refuses.
var (
	errRecvRight = errors.New("sim: receive from the right is not supported (rightward flow only)")
	errSendLeft  = errors.New("sim: send to the left is not supported (rightward flow only)")
)

// issue executes the ops of the word the cell issues (c.PC), its writes
// landing in the order of mcode.CellRegs, the model the fast executor
// steps too: queue fields in the instruction's order, memory ports in
// port order, then the ADD, MUL and move fields, as the recorder sees
// them.  Addresses pop from the Adr queue and are forwarded
// systolically to the next cell; the bound address terms are never
// read, the IU's stream is what the simulator checks.
func (g *group) issue(c *cell, w *mcode.Word) error {
	next, r := c.next, &c.regs
	r.Land(g.now) // FPU results that landed during idle cycles
	// The word's stores, landing at the end of the cycle in port order.
	var stores [mcode.MemPorts]struct {
		addr int64
		reg  uint8
	}
	nst := 0
	for i := w.Lo; i < w.Hi; i++ {
		switch o := &g.code.Ops[i]; o.Kind {
		case mcode.OpRecv:
			q := &c.in[o.X]
			v, err := q.pop()
			if err != nil {
				return err
			}
			recPop(g, q)
			r.Hold(mcode.Reg(o.Dst), v)
		case mcode.OpSend:
			v := r.R[o.A]
			if next != nil {
				q := &next.in[o.X]
				if err := q.push(v); err != nil {
					return err
				}
				recPush(g, q)
			} else if c.out != nil {
				if err := g.cross(c.out, uint8(o.X), 0, v, nil); err != nil {
					return err
				}
			} else if err := g.hostCollect(w2.Channel(o.X), v); err != nil {
				return err
			}
		case mcode.OpRecvRight:
			return errRecvRight
		case mcode.OpSendLeft:
			return errSendLeft
		case mcode.OpLoad, mcode.OpStore:
			addr, err := g.popAddr(c, int(o.B))
			if err != nil {
				return err
			}
			store := o.Kind == mcode.OpStore
			if store {
				stores[nst].addr, stores[nst].reg = addr, o.A
				nst++
			} else {
				r.Hold(mcode.Reg(o.Dst), c.mem[addr]) // read before the word's stores land
			}
			if g.trace {
				g.rec.MemRef(g.now, c.idx, int(o.B), addr, store)
			}
		case mcode.OpFadd:
			r.PushAt(mcode.Reg(o.Dst), r.R[o.A]+r.R[o.B], g.now+mcode.FPULatency)
		case mcode.OpFsub:
			r.PushAt(mcode.Reg(o.Dst), r.R[o.A]-r.R[o.B], g.now+mcode.FPULatency)
		case mcode.OpFmul:
			r.PushAt(mcode.Reg(o.Dst), r.R[o.A]*r.R[o.B], g.now+mcode.FPULatency)
		case mcode.OpMov:
			r.Hold(mcode.Reg(o.Dst), r.R[o.A])
		case mcode.OpEval:
			v, err := o.Eval(&r.R)
			if err != nil {
				return fmt.Errorf("sim: %w", err)
			}
			r.PushAt(mcode.Reg(o.Dst), v, g.now+mcode.FPULatency)
		}
	}
	// Nothing has written a register yet.
	for _, st := range stores[:nst] {
		c.mem[st.addr] = r.R[st.reg]
	}
	r.Land(g.now + 1)
	r.Commit()
	if w.Lit {
		r.R[w.LitDst] = g.code.Lits[c.PC]
	}
	return nil
}

// popAddr pops the address of the cell's memory port port off its Adr
// queue, forwards it to the next cell and checks it against the cell
// memory.
func (g *group) popAddr(c *cell, port int) (int64, error) {
	addr, err := c.adr.pop()
	if err != nil {
		return 0, err
	}
	recPop(g, &c.adr)
	if next := c.next; next != nil {
		if err := next.adr.push(addr); err != nil {
			return 0, err
		}
		recPush(g, &next.adr)
	} else if c.out != nil {
		if err := g.cross(c.out, crossAdr, addr, 0, nil); err != nil {
			return 0, err
		}
	}
	if addr < 0 || addr >= mcode.MemWords {
		return 0, fmt.Errorf("sim: address %d outside the %d-word cell memory (IU generated a bad address for %s)",
			addr, mcode.MemWords, g.cfg.Cell.MemAddr(&g.code.Words[c.PC], port))
	}
	return addr, nil
}
