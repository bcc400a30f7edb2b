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
	return 8 * cells * (laneRegWords + 2*mcode.QueueDepth + code.MemWords)
}

// maxHeld is room for a well-formed word's one-cycle writes, as in
// mcode.CellRegs: two receives, the loads and three ALU results.  A
// malformed word grows it.
const maxHeld = 2 + mcode.MemPorts + 3

// laneRegWords counts the values one lane of a laneRegs holds.
const laneRegWords = mcode.NumRegs + mcode.FPUSlots + maxHeld

// laneRegs is mcode.CellRegs n lanes wide: register g of lane l at
// r[g·n+l], each write in flight n values.  A word steps it as it steps
// CellRegs, except that hold and push return the lanes of the write for
// the caller to fill, so the writes land in the same (landing cycle,
// issue order).  A laneRegs must not be copied after reset.
type laneRegs struct {
	n    int
	r    []float64
	fifo [mcode.FPUSlots]struct {
		reg  mcode.Reg
		land int64
	}
	fifoVals   []float64 // FIFO slot s's values at fifoVals[s·n:]
	head, tail uint
	held       []mcode.Reg // the word's one-cycle writes, k's values at heldVals[k·n:]
	heldBuf    [maxHeld]mcode.Reg
	heldVals   []float64
}

// reset empties n register files over vals: laneRegWords·n zeros.
func (r *laneRegs) reset(n int, vals []float64) {
	regs, fifo := mcode.NumRegs*n, (mcode.NumRegs+mcode.FPUSlots)*n
	*r = laneRegs{n: n, r: vals[:regs:regs], fifoVals: vals[regs:fifo:fifo], heldVals: vals[fifo:]}
	r.held = r.heldBuf[:0]
}

// lanes returns register g of every lane.
func (r *laneRegs) lanes(g mcode.Reg) []float64 { return r.r[int(g)*r.n:][:r.n] }

// hold holds a one-cycle write to g back to the end of the word's cycle.
func (r *laneRegs) hold(g mcode.Reg) []float64 {
	k := len(r.held)
	r.held = append(r.held, g)
	if len(r.heldVals) < (k+1)*r.n {
		r.heldVals = append(r.heldVals, make([]float64, r.n)...)
	}
	return r.heldVals[k*r.n:][:r.n]
}

// push puts the result of an FPU field of the word issuing at cycle t in
// flight.
func (r *laneRegs) push(op *mcode.AluOp, t int64) []float64 {
	lat := op.Code.Latency()
	if lat == 1 {
		return r.hold(op.Dst)
	}
	s := r.tail % mcode.FPUSlots
	r.fifo[s].reg, r.fifo[s].land = op.Dst, t+lat
	r.tail++
	return r.fifoVals[int(s)*r.n:][:r.n]
}

// land applies the FPU results that land by cycle t.
func (r *laneRegs) land(t int64) {
	for ; r.head != r.tail && r.fifo[r.head%mcode.FPUSlots].land <= t; r.head++ {
		s := r.head % mcode.FPUSlots
		copy(r.lanes(r.fifo[s].reg), r.fifoVals[int(s)*r.n:][:r.n])
	}
}

// retire applies the held writes of the word's cycle in field order, then
// its literal.
func (r *laneRegs) retire(w *mcode.Word) {
	for k, g := range r.held {
		copy(r.lanes(g), r.heldVals[k*r.n:][:r.n])
	}
	r.held = r.held[:0]
	if w.HasLit {
		dst := r.lanes(w.Lit.Dst)
		for l := range dst {
			dst[l] = w.Lit.Value
		}
	}
}

// issueLanes is issue for a batched walk: the same fields in the same
// order against the same queues, every value n lanes wide.  The memory
// of lane l holds envelope word a at mem[a·n+l].
func (m *machine) issueLanes(c *cell, w *mcode.Word) error {
	next, r, n := c.next, &c.lanes, len(m.lanes)
	r.land(m.now)
	fields := m.code.IO
	for s, rv := w.IOLo, w.RecvLo; s < w.RecvLo || rv < w.IOHi; {
		if rv < w.IOHi && (s == w.RecvLo || fields[rv].Ord < fields[s].Ord) {
			io := &fields[rv]
			rv++
			if io.Dir != w2.DirL {
				return fmt.Errorf("sim: receive from the right is not supported (rightward flow only)")
			}
			q := &c.in[io.Ch]
			if err := q.popLanes(r.hold(io.Reg)); err != nil {
				return err
			}
			recPop(m, q)
			continue
		}
		io := &fields[s]
		s++
		if io.Dir != w2.DirR {
			return fmt.Errorf("sim: send to the left is not supported (rightward flow only)")
		}
		v := r.lanes(io.Reg)
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
		if store {
			c.nStores++
		} else {
			c.nLoads++
			copy(r.hold(mf.Reg), c.mem[at[port]:][:n])
		}
		if m.trace {
			m.rec.MemRef(m.now, c.idx, port, addr, store)
		}
	}

	for _, f := range [...]struct {
		on bool
		op *mcode.AluOp
	}{{w.HasAdd, &w.Add}, {w.HasMul, &w.Mul}, {w.HasMov, &w.Mov}} {
		if f.on {
			if err := f.op.EvalBatch(r.push(f.op, m.now), r.r, n); err != nil {
				return fmt.Errorf("sim: %w", err)
			}
		}
	}

	for port := range w.Mem {
		if mf := &w.Mem[port]; mf.Kind == mcode.MemStore {
			copy(c.mem[at[port]:][:n], r.lanes(mf.Reg))
		}
	}
	r.land(m.now + 1)
	r.retire(w)
	return nil
}

// hostInLanes pushes the host input word w into cell 0's queue q, one
// value per lane.
func (m *machine) hostInLanes(q *queue[float64], w *hostgen.Word) error {
	for l, mem := range m.lanes {
		switch {
		case w.Literal:
			m.gather[l] = w.Value
		case w.Index < 0 || int(w.Index) >= len(mem):
			return fmt.Errorf("sim: host input index %d outside host memory of %d words", w.Index, len(mem))
		default:
			m.gather[l] = mem[w.Index]
		}
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
	if idx := int(w.Index); idx != hostgen.Discard {
		for l, mem := range m.lanes {
			if idx < 0 || idx >= len(mem) {
				return fmt.Errorf("sim: host output index %d outside host memory of %d words", idx, len(mem))
			}
			mem[idx] = vals[l]
		}
	}
	m.hostSent[ch]++
	return nil
}
