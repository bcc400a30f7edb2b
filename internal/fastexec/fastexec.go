// Package fastexec executes compiled Warp programs at dataflow speed,
// without cycle-accurate lock-step simulation.
//
// The cycle-accurate simulator (internal/sim) advances the whole
// machine one clock tick at a time: every cell is stepped every cycle,
// scheduled nops included, pending-write lists are scanned, queues are
// tracked.  For a *verified* program all of that re-derives guarantees
// the static verifier has already proven — queues never under- or
// overflow, every address and loop signal arrives on time, the machine
// never stalls.  This package exploits those proofs: it compiles the
// representative cell's microcode into a flat trace of the non-nop
// microinstructions with every memory address and loop-control signal
// resolved ahead of time, then replays the trace per cell directly over
// host slices.  The machine model is not re-implemented here: the IU
// microprogram is elaborated exactly once by mcode.IUCode.Elaborate, the
// cell program is decoded and stepped by mcode's sequencer, and FPU
// fields evaluate through mcode.AluOp.Eval — the definitions the
// simulator and the verifier use.
//
// The replay is bit-exact with the simulator:
//
//   - Writes land late exactly as in hardware: receives, loads, moves
//     and literals become visible one cycle after issue, FPU results
//     after mcode.FPULatency cycles.  A small ring keyed by landing
//     cycle applies them in (landing cycle, issue order) — the same
//     order the simulator's pending-write scan produces, including
//     same-cycle write-after-write resolution.
//   - Cells execute sequentially left to right.  Data flows rightward
//     only (the compiler enforces this), so cell i's entire input
//     streams are known once cell i-1 has run; FIFO pop order is
//     preserved by construction.
//   - The host streams follow hostgen exactly: cell 0's receives
//     resolve input words lazily against host memory (semantic analysis
//     guarantees input and output regions never alias), the last cell's
//     sends store through the output sequence, honoring Discard.
//
// Cycle counts are not measured but *modeled*, in closed form: cell i
// starts at Lead + i·Skew and retires one microinstruction per cycle
// (the machine is statically scheduled and a verified program never
// stalls), so the run takes Lead + (Cells-1)·Skew + CellCycles cycles —
// exactly the count the simulator reports.
//
// The package trusts nothing silently: trip counts, stream lengths,
// address bounds and loop-signal consistency are all checked while the
// trace is built, and a program that cannot be compiled into a trace
// (oversized, or violating a build-time contract) is reported as an
// error so the caller can fall back to the simulator.
package fastexec

import (
	"context"
	"fmt"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/sim"
	"warp/internal/w2"
)

// maxTraceCycles caps the unrolled trace (and the IU elaboration) so a
// pathological trip-count product cannot exhaust memory building a
// plan; oversized programs are compile errors and run on the simulator.
const maxTraceCycles = 1 << 22

// ctxCheckInterval is how often (in executed trace operations) the
// executor polls ExecConfig.Ctx, mirroring the simulator's bounded
// cancellation stride.
const ctxCheckInterval = 1 << 12

const (
	ringSlots = mcode.FPULatency + 1 // landing cycles in flight are distinct mod this
	ringSpan  = mcode.FPULatency     // no write lands more than this far ahead
)

// Program is the static machine configuration a plan is compiled from —
// the same artifacts the simulator consumes.
type Program struct {
	Cells int
	Cell  *mcode.CellProgram
	IU    *mcode.IUProgram
	Host  *hostgen.Program
	// Skew is the cycle delay between adjacent cells' start times.
	Skew int64
	// Lead is the number of cycles cell 0 starts after the IU.
	Lead int64
}

// ioStep is one pre-resolved queue-port operation.
type ioStep struct {
	recv  bool
	chanY bool
	reg   mcode.Reg
}

// memStep is one pre-resolved memory-port operation: the address the IU
// would have streamed is already bound and bounds-checked.
type memStep struct {
	valid bool
	store bool
	reg   mcode.Reg
	addr  int32
}

// op is one non-nop microinstruction of the trace, stamped with its
// cell-local issue cycle.
type op struct {
	cycle int64
	add   *mcode.AluOp
	mul   *mcode.AluOp
	mov   *mcode.AluOp
	lit   *mcode.LitOp
	mem   [mcode.MemPorts]memStep
	io    []ioStep
}

// Plan is a compiled execution plan.  It is immutable after Compile and
// safe for concurrent Execute calls.
type Plan struct {
	cells      int
	skew, lead int64
	cellCycles int64
	cycles     int64 // modeled machine time, closed form
	ops        []op
	host       *hostgen.Program

	// Static per-cell dynamic-operation counts over one full trace.
	addOps, mulOps, movOps int64
	loads, stores          int64
	sendX, sendY           int
}

// Cycles returns the modeled machine time of a run: the cycle count the
// cycle-accurate simulator would report.
func (p *Plan) Cycles() int64 { return p.cycles }

// Ops returns the trace length: dynamic non-nop microinstructions per
// cell.
func (p *Plan) Ops() int { return len(p.ops) }

// Compile builds an execution plan: it elaborates the IU microprogram
// once to materialize the address and loop-signal streams, then unrolls
// the cell microprogram into a flat trace with every address resolved
// and every loop signal checked against the sequencer.  Programs the
// trace cannot represent (oversized, non-positive trip counts, stream
// inconsistencies) fail with an error; callers fall back to the
// simulator.
func Compile(p Program) (*Plan, error) {
	if p.Cells < 1 {
		return nil, fmt.Errorf("fastexec: need at least one cell")
	}
	if p.Cell == nil || p.IU == nil || p.Host == nil {
		return nil, fmt.Errorf("fastexec: incomplete program (cell, IU and host programs are all required)")
	}
	cellCycles := p.Cell.Cycles()
	if cellCycles > maxTraceCycles {
		return nil, fmt.Errorf("fastexec: cell program unrolls to %d cycles, over the %d-cycle trace cap", cellCycles, maxTraceCycles)
	}
	if iuCycles := p.IU.Cycles(); iuCycles > maxTraceCycles {
		return nil, fmt.Errorf("fastexec: IU program unrolls to %d cycles, over the %d-cycle trace cap", iuCycles, maxTraceCycles)
	}
	b, err := buildTrace(p)
	if err != nil {
		return nil, err
	}

	plan := &Plan{
		cells:      p.Cells,
		skew:       p.Skew,
		lead:       p.Lead,
		cellCycles: cellCycles,
		ops:        b.ops,
		host:       p.Host,
		addOps:     b.addOps, mulOps: b.mulOps, movOps: b.movOps,
		loads: b.loads, stores: b.stores,
		sendX: int(b.counts.Send[w2.ChanX]), sendY: int(b.counts.Send[w2.ChanY]),
	}
	// The last cell finishes at Lead + (Cells-1)·Skew + CellCycles - 1;
	// the simulator's reported count is one past that.  An empty cell
	// program still costs its start cycle.
	plan.cycles = p.Lead + int64(p.Cells-1)*p.Skew + cellCycles
	if cellCycles == 0 {
		plan.cycles++
	}

	// Host-stream consistency: cell 0 must not drain the input streams
	// dry, and the last cell's sends must fit the output sequences.
	// (Verified programs satisfy both; the checks keep an unverified
	// explicit fast run honest.)
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		if have, want := p.Host.In[ch].Words(), b.counts.Recv[ch]; have < want {
			return nil, fmt.Errorf("fastexec: cell 0 receives %d words on %s but the host program supplies %d", want, ch, have)
		}
	}
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		if have, want := p.Host.Out[ch].Words(), b.counts.Send[ch]; want > have {
			return nil, fmt.Errorf("fastexec: the last cell sends %d words on %s but the host program expects %d", want, ch, have)
		}
	}
	return plan, nil
}

// builder unrolls the cell microprogram into the trace, consuming the
// IU streams in the exact order the hardware would pop them.
type builder struct {
	iu     *mcode.IUTrace
	adrPos int
	sigPos int

	ops    []op
	counts mcode.CellCounts // closed-form totals: trace length, words per channel

	addOps, mulOps, movOps int64
	loads, stores          int64
}

// positiveTrips rejects a non-positive trip count.  The sequencer's
// loops are do-while — such a loop still executes once there — which
// the closed-form cycle model does not describe.
func positiveTrips(what string, ends []mcode.LoopEnd) error {
	for _, e := range ends {
		if e.Trips < 1 {
			return fmt.Errorf("fastexec: %s L%d has trip count %d", what, e.ID, e.Trips)
		}
	}
	return nil
}

// buildTrace elaborates the IU once (mcode.IUCode.Elaborate, the shared
// definition of its register machine) and steps the shared sequencer
// over the decoded cell program, binding one address per memory
// reference and checking one loop signal per boundary crossed.
func buildTrace(p Program) (*builder, error) {
	// An IU loop with an empty body emits nothing and takes no time;
	// the decoder leaves it out.
	iuCode, _ := mcode.DecodeIU(p.IU)
	for i := range iuCode.Words {
		if err := positiveTrips("IU loop", iuCode.Words[i].Ends); err != nil {
			return nil, err
		}
	}
	// Compile capped the IU's cycle count, so the elaboration completes.
	iu, _ := iuCode.Elaborate(p.IU.Table, maxTraceCycles)
	if iu.OverRead >= 0 {
		return nil, fmt.Errorf("fastexec: IU table read past its %d entries", len(p.IU.Table))
	}

	code, err := mcode.DecodeCell(p.Cell)
	if err != nil {
		return nil, fmt.Errorf("fastexec: %w", err)
	}
	for i := range code.Words {
		if err := positiveTrips("loop", code.Words[i].Ends); err != nil {
			return nil, err
		}
	}
	b := &builder{iu: iu, counts: mcode.CountCell(p.Cell)}
	b.ops = make([]op, 0, b.counts.Ops)
	s := mcode.Seq{Iter: make([]int64, code.Depth)}
	for t := int64(0); s.PC < len(code.Words); t++ {
		w := &code.Words[s.PC]
		crossed, again := s.Advance(w.Depth, w.Ends)
		if !w.Nop {
			if err := b.instr(w.Instr, t); err != nil {
				return nil, err
			}
		}
		// One IU control signal is consumed per loop boundary, innermost
		// first.
		for i, e := range w.Ends[:crossed] {
			if err := b.loopEnd(e.ID, again && i == crossed-1); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func (b *builder) loopEnd(id int, more bool) error {
	if b.sigPos >= len(b.iu.Sigs) {
		return fmt.Errorf("fastexec: the IU signal stream ran dry at loop L%d", id)
	}
	s := &b.iu.Sigs[b.sigPos]
	b.sigPos++
	if s.ID != id || s.More != more {
		return fmt.Errorf("fastexec: loop signal mismatch: sequencer at L%d(more=%v), IU sent L%d(more=%v)",
			id, more, s.ID, s.More)
	}
	return nil
}

// instr appends one non-empty instruction issued at cell cycle t.
func (b *builder) instr(in *mcode.Instr, t int64) error {
	o := op{cycle: t, add: in.Add, mul: in.Mul, mov: in.Mov, lit: in.Lit}
	for _, io := range in.IO {
		if io.Recv {
			if io.Dir != w2.DirL {
				return fmt.Errorf("fastexec: receive from the right is not supported (rightward flow only)")
			}
		} else if io.Dir != w2.DirR {
			return fmt.Errorf("fastexec: send to the left is not supported (rightward flow only)")
		}
		o.io = append(o.io, ioStep{recv: io.Recv, chanY: io.Chan == w2.ChanY, reg: io.Reg})
	}
	for port, mo := range in.Mem {
		if mo == nil {
			continue
		}
		if b.adrPos >= len(b.iu.Adr) {
			return fmt.Errorf("fastexec: the IU address stream ran dry at cycle %d, memory port %d", t, port)
		}
		addr := b.iu.Adr[b.adrPos].Val
		b.adrPos++
		if addr < 0 || addr >= mcode.MemWords {
			return fmt.Errorf("fastexec: address %d outside the %d-word cell memory (IU generated a bad address for %s)",
				addr, mcode.MemWords, mo.Addr)
		}
		o.mem[port] = memStep{valid: true, store: mo.Store, reg: mo.Reg, addr: int32(addr)}
		if mo.Store {
			b.stores++
		} else {
			b.loads++
		}
	}
	if in.Add != nil {
		b.addOps++
	}
	if in.Mul != nil {
		b.mulOps++
	}
	if in.Mov != nil {
		b.movOps++
	}
	b.ops = append(b.ops, o)
	return nil
}

// ExecConfig controls one execution of a plan.
type ExecConfig struct {
	// Ctx, when non-nil, is polled at a bounded operation stride (and
	// once up front); once cancelled the run aborts with an error
	// wrapping ctx.Err().
	Ctx context.Context
	// MaxCycles mirrors the simulator's livelock guard (0 = 1<<28): a
	// plan whose modeled run the simulator would have aborted is
	// rejected with an error wrapping sim.ErrLivelock, keeping the two
	// backends' failure behaviour aligned.
	MaxCycles int64
	// Progress, when non-nil, receives modeled-cycle position updates
	// at the same stride the context is polled, plus one final update
	// when the run completes.  The position is the fraction of the
	// trace replayed scaled onto the modeled cycle count, so it is
	// monotone and comparable to the simulator's cycles-retired
	// counter.  nil keeps the replay loop progress-free.
	Progress obs.ProgressFunc
}

// Result reports one execution.
type Result struct {
	// Cycles is the modeled machine time — identical to the count the
	// cycle-accurate simulator reports for the same program.
	Cycles int64
	// CellFinish is the modeled absolute cycle each cell finished at.
	CellFinish []int64
	// AddOps/MulOps are FPU issues summed over all cells; CellActive is
	// the summed active windows (finish − start per cell), the
	// denominator of the utilization metrics.
	AddOps, MulOps int64
	CellActive     int64
	// Sent counts words delivered to the host per channel.
	Sent map[w2.Channel]int
	// Obs is a modeled run profile: exact start/finish/issue counts per
	// cell; scheduled idle cycles are attributed as bubbles (the
	// starved/bubble split needs queue timing only the simulator has).
	Obs *obs.Profile
}

// pendWrite is a register write waiting for its landing cycle.
type pendWrite struct {
	reg mcode.Reg
	val float64
}

// ringSlot holds the writes landing on one cycle.  Landing cycles in
// flight span at most FPULatency cycles, so slots keyed by cycle mod
// (FPULatency+1) never collide.
type ringSlot struct {
	land int64
	w    []pendWrite
}

// pstore is a memory store waiting its one-cycle latency; stores always
// land before the next trace operation executes.
type pstore struct {
	addr int32
	val  float64
}

// cellRun is the per-cell execution state.
type cellRun struct {
	regs    [mcode.NumRegs]float64
	ring    [ringSlots]ringSlot
	applied int64 // cycle up to which landed writes are applied
}

// landTo applies every pending register write landing at or before
// cycle t, in (landing cycle, issue order) — the simulator's pending
// scan order.
func (c *cellRun) landTo(t int64) {
	for u := c.applied + 1; u <= t && u <= c.applied+ringSpan; u++ {
		s := &c.ring[u%ringSlots]
		if s.land == u {
			for _, w := range s.w {
				c.regs[w.reg] = w.val
			}
			s.w = s.w[:0]
			s.land = -1
		}
	}
	c.applied = t
}

func (c *cellRun) write(reg mcode.Reg, v float64, land int64) {
	s := &c.ring[land%ringSlots]
	s.land = land
	s.w = append(s.w, pendWrite{reg: reg, val: v})
}

// execState is the whole-array execution state shared across cells.
type execState struct {
	plan     *Plan
	hostMem  []float64
	ctx      context.Context
	progress obs.ProgressFunc

	mem     []float64 // one cell's data memory, zeroed per cell
	pstores []pstore

	// Inter-cell streams, double-buffered: a cell reads prev* (its left
	// neighbour's full output) and appends to cur*.
	prevX, prevY []float64
	curX, curY   []float64
	xPos, yPos   int

	hostIn, hostOut [2]hostgen.Reader // the host streams on X, Y
	sent            map[w2.Channel]int

	opCount int64
}

func chanOf(chanY bool) (w2.Channel, int) {
	if chanY {
		return w2.ChanY, 1
	}
	return w2.ChanX, 0
}

// hostWord resolves cell 0's next input word on a channel, lazily
// against host memory — exact because semantic analysis makes receive
// externals in-parameters and send externals out-parameters, so the
// input region is never overwritten during a run.
func (st *execState) hostWord(chanY bool) (float64, error) {
	ch, ci := chanOf(chanY)
	w := st.hostIn[ci].Next()
	if w == nil {
		return 0, fmt.Errorf("fastexec: host input stream on %s ran dry after %d words", ch, st.plan.host.In[ch].Words())
	}
	if w.Literal {
		return w.Value, nil
	}
	if w.Index < 0 || int(w.Index) >= len(st.hostMem) {
		return 0, fmt.Errorf("fastexec: host input index %d outside host memory of %d words", w.Index, len(st.hostMem))
	}
	return st.hostMem[w.Index], nil
}

// hostCollect receives one word from the last cell on a channel,
// mirroring the simulator's output sequencing (Discard entries are
// dummy sends with no destination).
func (st *execState) hostCollect(chanY bool, v float64) error {
	ch, ci := chanOf(chanY)
	w := st.hostOut[ci].Next()
	if w == nil {
		return fmt.Errorf("fastexec: the last cell sent more words on %s than the host program expects (%d)", ch, st.sent[ch])
	}
	if idx := int(w.Index); idx != hostgen.Discard {
		if idx < 0 || idx >= len(st.hostMem) {
			return fmt.Errorf("fastexec: host output index %d outside host memory of %d words", idx, len(st.hostMem))
		}
		st.hostMem[idx] = v
	}
	st.sent[ch]++
	return nil
}

// Execute runs the plan over a host memory image (inputs pre-loaded;
// outputs written in place).  The plan is read-only: concurrent
// Execute calls on one Plan are safe.
func (p *Plan) Execute(hostMem []float64, cfg ExecConfig) (*Result, error) {
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1 << 28
	}
	// The simulator aborts when its clock passes MaxCycles before the
	// last cell retires, i.e. whenever the run needs more than
	// MaxCycles+1 cycles; the modeled count makes the same decision
	// without running.
	if p.cycles > maxCycles+1 {
		return nil, fmt.Errorf("fastexec: modeled run needs %d cycles, exceeding %d; the machine is %w",
			p.cycles, maxCycles, sim.ErrLivelock)
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("fastexec: run aborted: %w", err)
		}
	}

	st := &execState{
		plan:     p,
		hostMem:  hostMem,
		ctx:      cfg.Ctx,
		progress: cfg.Progress,
		mem:      make([]float64, mcode.MemWords),
		curX:     make([]float64, 0, p.sendX),
		curY:     make([]float64, 0, p.sendY),
		sent:     map[w2.Channel]int{},
	}
	for ci, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		st.hostIn[ci] = hostgen.NewReader(p.host.In[ch])
		st.hostOut[ci] = hostgen.NewReader(p.host.Out[ch])
	}
	for i := 0; i < p.cells; i++ {
		if err := p.runCell(st, i); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		// This cell's output becomes the next cell's input; the spent
		// input buffer is recycled as the next output buffer.
		st.prevX, st.curX = st.curX, st.prevX[:0]
		st.prevY, st.curY = st.curY, st.prevY[:0]
		st.xPos, st.yPos = 0, 0
	}
	if cfg.Progress != nil {
		cfg.Progress(obs.ProgressUpdate{Cycles: p.cycles, Done: true})
	}
	return p.result(st), nil
}

// runCell replays the trace for one cell.
func (p *Plan) runCell(st *execState, idx int) error {
	first, last := idx == 0, idx == p.cells-1
	c := &cellRun{applied: -1}
	for s := range c.ring {
		c.ring[s].land = -1
	}
	clear(st.mem)
	st.pstores = st.pstores[:0]

	for oi := range p.ops {
		o := &p.ops[oi]
		if st.ctx != nil || st.progress != nil {
			st.opCount++
			if st.opCount%ctxCheckInterval == 1 {
				if st.ctx != nil {
					if err := st.ctx.Err(); err != nil {
						return fmt.Errorf("fastexec: run aborted: %w", err)
					}
				}
				if st.progress != nil {
					// The replay visits cells sequentially, so the raw
					// trace position would jump backwards at each cell
					// boundary; scale the global op counter onto the
					// modeled cycle axis for a monotone position.
					total := int64(len(p.ops)) * int64(p.cells)
					st.progress(obs.ProgressUpdate{Cycles: p.cycles * st.opCount / total})
				}
			}
		}
		t := o.cycle
		// Writes landing by this cycle become visible before any read.
		c.landTo(t)
		for _, w := range st.pstores {
			st.mem[w.addr] = w.val
		}
		st.pstores = st.pstores[:0]

		// Field order matches the simulator: IO, memory ports, ADD,
		// MUL, MOV, literal — which fixes the issue order of same-cycle
		// pending writes.
		for _, io := range o.io {
			if io.recv {
				var v float64
				if first {
					var err error
					if v, err = st.hostWord(io.chanY); err != nil {
						return err
					}
				} else if io.chanY {
					if st.yPos >= len(st.prevY) {
						return fmt.Errorf("fastexec: queue cell%d.Y underflows (receive before the matching send)", idx)
					}
					v = st.prevY[st.yPos]
					st.yPos++
				} else {
					if st.xPos >= len(st.prevX) {
						return fmt.Errorf("fastexec: queue cell%d.X underflows (receive before the matching send)", idx)
					}
					v = st.prevX[st.xPos]
					st.xPos++
				}
				c.write(io.reg, v, t+1)
			} else {
				v := c.regs[io.reg]
				switch {
				case last:
					if err := st.hostCollect(io.chanY, v); err != nil {
						return err
					}
				case io.chanY:
					st.curY = append(st.curY, v)
				default:
					st.curX = append(st.curX, v)
				}
			}
		}
		for pi := range o.mem {
			ms := &o.mem[pi]
			if !ms.valid {
				continue
			}
			if ms.store {
				st.pstores = append(st.pstores, pstore{addr: ms.addr, val: c.regs[ms.reg]})
			} else {
				c.write(ms.reg, st.mem[ms.addr], t+1)
			}
		}
		// FPU fields, evaluated by the one ALU table both executors share
		// (divide-by-zero fault included) and landed at the unit's
		// latency.  One block per field on purpose: ranging over an array
		// of the three costs 10% of the whole replay.
		if f := o.add; f != nil {
			v, err := f.Eval(&c.regs)
			if err != nil {
				return fmt.Errorf("fastexec: %w", err)
			}
			c.write(f.Dst, v, t+f.Code.Latency())
		}
		if f := o.mul; f != nil {
			v, err := f.Eval(&c.regs)
			if err != nil {
				return fmt.Errorf("fastexec: %w", err)
			}
			c.write(f.Dst, v, t+f.Code.Latency())
		}
		if f := o.mov; f != nil {
			v, err := f.Eval(&c.regs)
			if err != nil {
				return fmt.Errorf("fastexec: %w", err)
			}
			c.write(f.Dst, v, t+f.Code.Latency())
		}
		if o.lit != nil {
			c.write(o.lit.Dst, o.lit.Value, t+1)
		}
	}
	// Writes still in flight when the cell retires are never observed:
	// the simulator stops stepping a finished cell the same way.
	return nil
}

// result assembles the modeled statistics and run profile.
func (p *Plan) result(st *execState) *Result {
	res := &Result{
		CellFinish: make([]int64, p.cells),
		AddOps:     p.addOps * int64(p.cells),
		MulOps:     p.mulOps * int64(p.cells),
		Sent:       st.sent,
		Cycles:     p.cycles,
	}
	prof := &obs.Profile{
		Cells:  p.cells,
		Cycles: p.cycles,
		Skew:   p.skew,
		Lead:   p.lead,
		Cell:   make([]obs.CellProfile, p.cells),
	}
	busy := int64(len(p.ops))
	last := p.cycles - 1
	for i := 0; i < p.cells; i++ {
		start := p.lead + int64(i)*p.skew
		finish := start
		if p.cellCycles > 0 {
			finish = start + p.cellCycles - 1
		}
		res.CellFinish[i] = finish
		res.CellActive += finish - start
		prof.Cell[i] = obs.CellProfile{
			Start:  start,
			Finish: finish,
			AddOps: p.addOps, MulOps: p.mulOps, MovOps: p.movOps,
			Loads: p.loads, Stores: p.stores,
			Busy:     busy,
			Bubble:   p.cellCycles - busy, // idle issue slots; the starved split needs queue timing
			SkewLead: int64(i) * p.skew,
			Drain:    last - finish,
		}
	}
	res.Obs = prof
	return res
}
