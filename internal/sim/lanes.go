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

// RunBatch runs the configuration over several host memory images in one
// walk of the machine (cfg.HostMem is ignored).  Every control step is
// shared and only the values are lane-wide, so each image ends exactly as
// Run leaves it, and the one Stats, shared by all the problems, is each
// one's.  A control error (a queue under- or overflow, a loop signal
// mismatch, a stream residue) is the same in every lane and reads as
// Run's; a value fault names its lane (a divide by zero "in lane k");
// either fails the whole batch, its images half written.  Each lane's
// cell memory is the envelope, so an address outside it fails the walk
// with an error wrapping ErrEnvelope, and a program with an address the
// decoder could not bind does not walk batched at all.  One image is Run.
func RunBatch(cfg Config, hostMems [][]float64) (*Stats, error) {
	switch len(hostMems) {
	case 0:
		return nil, errors.New("sim: an empty batch")
	case 1:
		cfg.HostMem = hostMems[0]
		return Run(cfg)
	}
	return run(cfg, hostMems)
}

// LaneBytes is the machine state one problem adds to a batched walk of
// the cell program on cells cells: per cell its registers and writes in
// flight, its X and Y queue words and its memory envelope.  It is 0 for
// a program that does not walk batched.
func LaneBytes(cells int, cell *mcode.CellProgram) int {
	code, err := mcode.Decode(cell)
	if err != nil || code.Unbound != nil {
		return 0
	}
	return 8 * cells * (mcode.LaneRegWords + 2*mcode.QueueDepth + code.MemWords)
}

// issueLanes is issue for a batched walk: the same fields in the same
// order against the same queues, every value n lanes wide, its writes
// landing through mcode.LaneRegs.  The memory of lane l holds envelope
// word a at mem[a·n+l].
func (m *machine) issueLanes(c *cell, w *mcode.Word) error {
	next, r, n := c.next, &c.lanes, len(m.lanes)
	r.Land(m.now)
	fields := m.code.IO
	for s, rv := w.IOLo, w.RecvLo; s < w.RecvLo || rv < w.IOHi; {
		if rv < w.IOHi && (s == w.RecvLo || fields[rv].Ord < fields[s].Ord) {
			io := &fields[rv]
			rv++
			if io.Dir != w2.DirL {
				return errRecvRight
			}
			q := &c.in[io.Ch]
			if err := q.popLanes(r.Hold(io.Reg)); err != nil {
				return err
			}
			recPop(m, q)
			continue
		}
		io := &fields[s]
		s++
		if io.Dir != w2.DirR {
			return errSendLeft
		}
		v := r.Lanes(io.Reg)
		if next != nil {
			q := &next.in[io.Ch]
			if err := q.pushLanes(v); err != nil {
				return err
			}
			recPush(m, q)
		} else if err := m.hostCollectLanes(io.Ch, v); err != nil {
			return err
		}
	}

	var at [mcode.MemPorts]int
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
		if addr < 0 || addr >= mcode.MemWords {
			return fmt.Errorf("sim: address %d outside the %d-word cell memory (IU generated a bad address for %s)",
				addr, mcode.MemWords, m.cfg.Cell.MemAddr(w, port))
		}
		a := addr - m.code.MemLo
		if a < 0 || a >= int64(m.code.MemWords) {
			return fmt.Errorf("sim: address %d for %s is %w (%d words from %d)",
				addr, m.cfg.Cell.MemAddr(w, port), ErrEnvelope, m.code.MemWords, m.code.MemLo)
		}
		at[port] = int(a) * n
		store := mf.Kind == mcode.MemStore
		if !store {
			copy(r.Hold(mf.Reg), c.mem[at[port]:][:n])
		}
		if m.trace {
			m.rec.MemRef(m.now, c.idx, port, addr, store)
		}
	}

	if err := r.Issue(w, m.now); err != nil {
		return fmt.Errorf("sim: %w", err)
	}

	for port := range w.Mem {
		if mf := &w.Mem[port]; mf.Kind == mcode.MemStore {
			copy(c.mem[at[port]:][:n], r.Lanes(mf.Reg))
		}
	}
	r.Land(m.now + 1)
	r.Retire(w)
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
