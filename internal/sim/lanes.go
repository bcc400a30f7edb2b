package sim

import (
	"errors"
	"fmt"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/w2"
)

// ErrEnvelope marks a batched walk stopped by an address inside the cell
// memory but outside the envelope the decoded program's memory fields are
// bound to (mcode.Decoded's MemLo and MemWords), the only memory a
// batched walk holds.  The problems then run one at a time.  Callers test
// for it with errors.Is.
var ErrEnvelope = errors.New("outside the memory envelope of a batched walk")

// RunBatch runs the loaded program under cfg's run fields (Controls,
// Recorder, PCStats; cfg's program fields are the load's) over several
// host memory images in one walk of the machine (cfg.HostMem is
// ignored).  Every control step is shared and only the values are
// lane-wide, so each image ends exactly as Run leaves it, and the one
// Stats, shared by all the problems, is each one's.  A control error (a
// queue under- or overflow, a loop signal mismatch, a stream residue) is
// the same in every lane and reads as Run's; a value fault names its lane
// (a divide by zero "in lane k"); either fails the whole batch, its images
// half written.  Each lane's cell memory is the envelope, so an address
// outside it fails the walk with an error wrapping ErrEnvelope, and a
// program with an address the decoder could not bind does not walk
// batched at all.  One image is Run.
func (l *Loaded) RunBatch(cfg Config, hostMems [][]float64) (*Stats, error) {
	cfg.Cells, cfg.Cell, cfg.IU, cfg.Host, cfg.Skew, cfg.Lead = l.cfg.Cells, l.cfg.Cell, l.cfg.IU, l.cfg.Host, l.cfg.Skew, l.cfg.Lead
	switch len(hostMems) {
	case 0:
		return nil, errors.New("sim: an empty batch")
	case 1:
		cfg.HostMem = hostMems[0]
		return run(l, cfg, nil)
	}
	return run(l, cfg, hostMems)
}

// issueLanes is issue for a batched walk: the same ops in the same order
// against the same queues, every value n lanes wide, its writes landing
// through mcode.LaneRegs.  The memory of lane l holds envelope word a at
// mem[a·n+l].
func (g *group) issueLanes(c *cell, w *mcode.Word) error {
	next, r, n := c.next, &c.lanes, len(g.lanes)
	r.Land(g.now)
	// The word's stores, landing at the end of the cycle in port order.
	var stores [mcode.MemPorts]struct {
		at  int
		reg mcode.Reg
	}
	nst := 0
	for i := w.Lo; i < w.Hi; i++ {
		switch o := &g.code.Ops[i]; o.Kind {
		case mcode.OpRecv:
			q := &c.in[o.X]
			if err := q.popLanes(r.Hold(mcode.Reg(o.Dst))); err != nil {
				return err
			}
			recPop(g, q)
		case mcode.OpSend:
			v := r.Lanes(mcode.Reg(o.A))
			if next != nil {
				q := &next.in[o.X]
				if err := q.pushLanes(v); err != nil {
					return err
				}
				recPush(g, q)
			} else if c.out != nil {
				if err := g.cross(c.out, uint8(o.X), 0, 0, v); err != nil {
					return err
				}
			} else if err := g.hostCollectLanes(w2.Channel(o.X), v); err != nil {
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
			a := addr - g.code.MemLo
			if a < 0 || a >= int64(g.code.MemWords) {
				return fmt.Errorf("sim: address %d for %s is %w (%d words from %d)",
					addr, g.cfg.Cell.MemAddr(w, int(o.B)), ErrEnvelope, g.code.MemWords, g.code.MemLo)
			}
			store := o.Kind == mcode.OpStore
			if store {
				stores[nst].at, stores[nst].reg = int(a)*n, mcode.Reg(o.A)
				nst++
			} else {
				copy(r.Hold(mcode.Reg(o.Dst)), c.mem[int(a)*n:][:n])
			}
			if g.trace {
				g.rec.MemRef(g.now, c.idx, int(o.B), addr, store)
			}
		default:
			if err := r.Exec(o, g.now); err != nil {
				return fmt.Errorf("sim: %w", err)
			}
		}
	}
	for _, st := range stores[:nst] {
		copy(c.mem[st.at:][:n], r.Lanes(st.reg))
	}
	r.Land(g.now + 1)
	r.Commit()
	if w.Lit {
		r.Set(mcode.Reg(w.LitDst), g.code.Lits[c.PC])
	}
	return nil
}

// hostInLanes pushes the host input word w into cell 0's queue q, one
// value per lane.
func (m *machine) hostInLanes(q *queue[float64], w *hostgen.Word) error {
	if err := w.Gather(m.gather, m.lanes); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return q.pushLanes(m.gather)
}

// hostCollectLanes receives one word per lane, vals, from the last cell
// on a channel.
func (m *machine) hostCollectLanes(ch w2.Channel, vals []float64) error {
	w := m.hostOut[ch].Next()
	if w == nil {
		return m.hostOverrun(ch)
	}
	if err := w.Scatter(m.lanes, vals); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	m.hostSent[ch]++
	return nil
}
