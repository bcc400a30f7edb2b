// Package fastexec executes compiled Warp programs at dataflow speed: a
// mode of the one machine model the cycle-accurate simulator
// (internal/sim) steps, not a second one.  The simulator steps every cell
// every clock tick under real queues and pops every address and loop
// signal off the IU's streams; for a *verified* program that re-derives
// what the static verifier has proven.  So a plan is the decoded cell
// program the simulator steps (mcode.Decode), run per cell directly over
// host slices with addresses from its bound affine terms, its writes
// landing through mcode.CellRegs as the simulator's do.  Compile lowers
// the decoded words once more, into the plan's own stream of 8-byte ops
// (lower.go): per word the reads before its cycle's landing and the
// writes after it, the plain arithmetic inline, every other code through
// mcode.AluOp.Eval.  A plan is as large as the microcode, whatever the
// trip counts.
//
// W2 has no data-dependent control and the IU generates every address
// and loop signal, so one walk of a plan serves any number of problems
// (ExecuteBatch): words, sequencing and addresses are shared, and each
// register, memory word, stream word and FPU FIFO entry holds a value per
// problem.  One problem alone keeps a one-wide body over the ops
// (runCell): the lane-wide body, over the decoded words, runs one problem
// 2.3–2.9× slower.
//
// The run is bit-exact with the simulator:
//
//   - Writes land late exactly as in hardware, in the simulator's
//     (landing cycle, issue order): runCell steps mcode.CellRegs and the
//     batched walk (runLanes) mcode.LaneRegs, as the simulator does.
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
// The package trusts nothing silently.  Compile elaborates the IU once
// and steps the plan once against what it emits: trip counts, stream
// lengths, address bounds, every address the IU sends against the one
// the memory field names, every loop signal against the sequencer.  The
// walk stores nothing per event; a program that fails it (or is too long
// to walk) is reported as an error so the caller can fall back to the
// simulator.
package fastexec

import (
	"cmp"
	"context"
	"fmt"
	"sync"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/sim"
	"warp/internal/w2"
)

// maxTraceCycles caps Compile's validation walk (and the IU elaboration
// it checks against): longer programs are compile errors and run on the
// simulator.
const maxTraceCycles = 1 << 22

// ctxCheckInterval is how often (in executed plan words) the executor
// polls ExecConfig.Ctx, mirroring the simulator's bounded cancellation
// stride.
const ctxCheckInterval = 1 << 12

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

// Plan is a compiled execution plan.  It is immutable after Compile and
// safe for concurrent Execute calls.
type Plan struct {
	cells      int
	skew, lead int64
	cycles     int64 // modeled machine time, closed form
	host       *hostgen.Program

	code   mcode.Decoded
	low    lowered          // the code as runCell's ops
	counts mcode.CellCounts // one cell's run, in closed form
}

// Cycles returns the modeled machine time of a run: the cycle count the
// cycle-accurate simulator would report.
func (p *Plan) Cycles() int64 { return p.cycles }

// Ops returns the dynamic non-nop microinstructions one cell executes.
func (p *Plan) Ops() int { return int(p.counts.Ops) }

// Words returns the plan's size in words: static, whatever the trip
// counts.
func (p *Plan) Words() int { return len(p.code.Words) }

// Compile builds an execution plan: it decodes the cell microprogram
// into plan words with its loops kept, elaborates the IU microprogram
// once and walks the plan once against the address and loop-signal
// streams it emits.  Programs that fail a check (oversized, non-positive
// trip counts, stream inconsistencies) fail with an error; callers fall
// back to the simulator.
func Compile(p Program) (*Plan, error) {
	if p.Cells < 1 {
		return nil, fmt.Errorf("fastexec: need at least one cell")
	}
	if p.Cell == nil || p.IU == nil || p.Host == nil {
		return nil, fmt.Errorf("fastexec: incomplete program (cell, IU and host programs are all required)")
	}
	counts, err := mcode.CountCell(p.Cell)
	if err != nil {
		return nil, fmt.Errorf("fastexec: %w", err)
	}
	if counts.Cycles > maxTraceCycles {
		return nil, fmt.Errorf("fastexec: cell program unrolls to %d cycles, over the %d-cycle trace cap", counts.Cycles, maxTraceCycles)
	}
	iuCounts, err := mcode.CountIU(p.IU)
	if err != nil {
		return nil, fmt.Errorf("fastexec: %w", err)
	}
	if iuCounts.Cycles > maxTraceCycles {
		return nil, fmt.Errorf("fastexec: IU program unrolls to %d cycles, over the %d-cycle trace cap", iuCounts.Cycles, maxTraceCycles)
	}
	// An IU loop with an empty body emits nothing and takes no time;
	// the decoder leaves it out.
	iuCode, _ := mcode.DecodeIU(p.IU)
	for i := range iuCode.Words {
		if err := positiveTrips("IU loop", iuCode.Words[i].Ends); err != nil {
			return nil, err
		}
	}
	// The IU's cycle count is capped above, so the elaboration completes.
	iu, _ := iuCode.Elaborate(p.IU.Table, maxTraceCycles)
	defer iu.Release()
	if iu.OverRead >= 0 {
		return nil, fmt.Errorf("fastexec: IU table read past its %d entries", len(p.IU.Table))
	}
	code, err := mcode.Decode(p.Cell)
	if err != nil {
		return nil, fmt.Errorf("fastexec: %w", err)
	}
	if err := positiveTrips("loop", code.Ends); err != nil {
		return nil, err
	}
	for i := range code.Words {
		w := &code.Words[i]
		for k, io := range code.IO[w.IOLo:w.IOHi] {
			if send := w.IOLo+int32(k) < w.RecvLo; send && io.Dir != w2.DirR {
				return nil, fmt.Errorf("fastexec: send to the left is not supported (rightward flow only)")
			} else if !send && io.Dir != w2.DirL {
				return nil, fmt.Errorf("fastexec: receive from the right is not supported (rightward flow only)")
			}
		}
	}
	if code.Unbound != nil {
		return nil, fmt.Errorf("fastexec: address %w", code.Unbound)
	}

	plan := &Plan{
		cells:  p.Cells,
		skew:   p.Skew,
		lead:   p.Lead,
		host:   p.Host,
		code:   *code,
		low:    lower(code),
		counts: counts,
	}
	// The last cell finishes at Lead + (Cells-1)·Skew + CellCycles - 1;
	// the simulator's reported count is one past that.  An empty cell
	// program still costs its start cycle.
	plan.cycles = p.Lead + int64(p.Cells-1)*p.Skew + max(counts.Cycles, 1)
	if err := plan.validate(iu, p.Cell); err != nil {
		return nil, err
	}

	// Host-stream consistency: cell 0 must not drain the input streams
	// dry, and the last cell's sends must fit the output sequences.
	// (Verified programs satisfy both; the checks keep an unverified
	// explicit fast run honest.)
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		if have, want := p.Host.In[ch].Words(), counts.Recv[ch]; have < want {
			return nil, fmt.Errorf("fastexec: cell 0 receives %d words on %s but the host program supplies %d", want, ch, have)
		}
		if have, want := p.Host.Out[ch].Words(), counts.Send[ch]; want > have {
			return nil, fmt.Errorf("fastexec: the last cell sends %d words on %s but the host program expects %d", want, ch, have)
		}
	}
	return plan, nil
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

// addr is the address a memory field references with the enclosing
// loops at iterations iter.
func (p *Plan) addr(m *mcode.MemField, iter []int64) int64 {
	a := m.Start
	for _, t := range p.code.Terms[m.TermLo:m.TermHi] {
		a += t.Coef * iter[t.Depth]
	}
	return a
}

// validate steps the plan once, as Execute will, against the streams the
// IU emits in the order the hardware pops them: one address per memory
// reference — in range, and the address the field's metadata names —
// and one loop signal per boundary crossed.
func (p *Plan) validate(iu *mcode.IUTrace, cell *mcode.CellProgram) error {
	s := mcode.Seq{Iter: make([]int64, p.code.Depth)}
	adrs, sigs := iu.Adr, iu.Sigs
	for t := int64(0); s.PC < len(p.code.Words); t++ {
		w := &p.code.Words[s.PC]
		t += w.Skip
		for port := range w.Mem {
			m := &w.Mem[port]
			if m.Kind == mcode.MemNone {
				continue
			}
			if len(adrs) == 0 {
				return fmt.Errorf("fastexec: the IU address stream ran dry at cycle %d, memory port %d", t, port)
			}
			addr := adrs[0].Val
			adrs = adrs[1:]
			if addr < 0 || addr >= mcode.MemWords {
				return fmt.Errorf("fastexec: address %d outside the %d-word cell memory (IU generated a bad address for %s)",
					addr, mcode.MemWords, cell.MemAddr(w, port))
			}
			if want := p.code.MemLo + p.addr(m, s.Iter); addr != want {
				return fmt.Errorf("fastexec: address mismatch at cycle %d, memory port %d: the IU sends %d where %s names %d",
					t, port, addr, cell.MemAddr(w, port), want)
			}
			if addr < p.code.MemLo || addr-p.code.MemLo >= int64(p.code.MemWords) {
				return fmt.Errorf("fastexec: address %d outside the %d words from %d that %s and the other fields are bound to",
					addr, p.code.MemWords, p.code.MemLo, cell.MemAddr(w, port))
			}
		}
		// One IU control signal is consumed per loop boundary, innermost
		// first.
		ends := p.code.Ends[w.EndLo:w.EndHi]
		crossed, again := s.Advance(w.Depth, ends)
		for i, e := range ends[:crossed] {
			if len(sigs) == 0 {
				return fmt.Errorf("fastexec: the IU signal stream ran dry at loop L%d", e.ID)
			}
			sig, more := sigs[0], again && i == crossed-1
			sigs = sigs[1:]
			if sig.ID != e.ID || sig.More != more {
				return fmt.Errorf("fastexec: loop signal mismatch: sequencer at L%d(more=%v), IU sent L%d(more=%v)",
					e.ID, more, sig.ID, sig.More)
			}
		}
	}
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
	// when the run completes.  The position is the cell cycles retired
	// so far (cells run one after another) scaled onto the modeled
	// cycle count, so it is monotone and comparable to the simulator's
	// cycles-retired counter.  nil keeps the run loop progress-free.
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

// execState is the whole-array execution state shared across cells,
// n = len(hostMems) problems wide.  It is pooled: a slice is reused when
// it has the room.
type execState struct {
	plan     *Plan
	hostMems [][]float64 // one image per problem
	ctx      context.Context
	progress obs.ProgressFunc

	mem  []float64 // one cell's data memory over the plan's envelope, word a of problem l at mem[a·n+l], zeroed per cell
	iter []int64   // the sequencer's iteration counters, all zero between cells

	// Inter-cell streams on X and Y, double-buffered: a cell reads prev
	// (its left neighbour's full output) and appends to cur, n values a
	// word.
	prev, cur [2][]float64

	cell     mcode.CellRegs // the one-wide body's registers
	lanes    mcode.LaneRegs // a batched walk's, over laneVals
	laneVals []float64

	hostIn, hostOut [2]hostgen.Reader // the host streams on X, Y: the same words for every problem
	sent            [2]int

	wordCount int64
}

var statePool = sync.Pool{New: func() any { return new(execState) }}

// sized returns s at length n, reallocated only when it lacks the room.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// hostWords resolves cell 0's next input word on a channel for every
// problem, lazily against host memory — exact because semantic analysis
// makes receive externals in-parameters and send externals out-parameters,
// so the input region is never overwritten during a run.
func (st *execState) hostWords(ch w2.Channel, dst []float64) error {
	w := st.hostIn[ch].Next()
	if w == nil {
		return st.ranDry(ch)
	}
	if err := w.Gather(dst, st.hostMems); err != nil {
		return fmt.Errorf("fastexec: %w", err)
	}
	return nil
}

// hostCollect receives one word per problem from the last cell on a
// channel, mirroring the simulator's output sequencing (Discard entries
// are dummy sends with no destination).
func (st *execState) hostCollect(ch w2.Channel, vals []float64) error {
	w := st.hostOut[ch].Next()
	if w == nil {
		return st.sentMore(ch)
	}
	if err := w.Scatter(st.hostMems, vals); err != nil {
		return fmt.Errorf("fastexec: %w", err)
	}
	st.sent[ch]++
	return nil
}

// ranDry reports cell 0 receiving past the end of a host input stream.
func (st *execState) ranDry(ch w2.Channel) error {
	return fmt.Errorf("fastexec: host input stream on %s ran dry after %d words", ch, st.plan.host.In[ch].Words())
}

// sentMore reports the last cell sending past the end of a host output
// stream.
func (st *execState) sentMore(ch w2.Channel) error {
	return fmt.Errorf("fastexec: the last cell sent more words on %s than the host program expects (%d)", ch, st.sent[ch])
}

// poll counts an executed plan word and, once a stride, checks for
// cancellation and reports progress: t is the cell cycle cell idx has
// reached.
func (st *execState) poll(idx int, t int64) error {
	st.wordCount++
	if st.wordCount%ctxCheckInterval != 1 {
		return nil
	}
	if st.ctx != nil {
		if err := st.ctx.Err(); err != nil {
			return fmt.Errorf("fastexec: run aborted: %w", err)
		}
	}
	if p := st.plan; st.progress != nil {
		// Cells run one after another: the cell cycles retired so far,
		// scaled onto the modeled cycle axis, are a monotone position.
		done := int64(idx)*p.counts.Cycles + t
		st.progress(obs.ProgressUpdate{Cycles: p.cycles * done / (int64(p.cells) * p.counts.Cycles)})
	}
	return nil
}

// Execute runs the plan over a host memory image (inputs pre-loaded;
// outputs written in place).  The plan is read-only: concurrent
// Execute calls on one Plan are safe.
func (p *Plan) Execute(hostMem []float64, cfg ExecConfig) (*Result, error) {
	return p.ExecuteBatch([][]float64{hostMem}, cfg)
}

// StateBytes is the execution state one problem of a batch occupies:
// registers, cell memory envelope, write buffers, inter-cell streams.
func (p *Plan) StateBytes() int {
	return 8 * (mcode.LaneRegWords + p.code.MemWords + 2*int(p.counts.Send[0]+p.counts.Send[1]))
}

// ExecuteBatch runs the plan over several problems' host memory images
// in one walk: W2 has no data-dependent control and the IU generates
// every address and loop signal, so all problems execute the same words
// at the same addresses and differ only in the values.  Every image ends
// bit-identical to what Execute leaves in it and the Result is
// Execute's; an error (a divide by zero names its lane) fails the whole
// batch, its images half written.
func (p *Plan) ExecuteBatch(hostMems [][]float64, cfg ExecConfig) (*Result, error) {
	if len(hostMems) == 0 {
		return nil, fmt.Errorf("fastexec: an empty batch")
	}
	maxCycles := cmp.Or(cfg.MaxCycles, 1<<28)
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

	n := len(hostMems)
	st := statePool.Get().(*execState)
	defer func() {
		st.hostMems, st.ctx, st.progress = nil, nil, nil // the pool must not keep a caller's memory alive
		statePool.Put(st)
	}()
	st.plan, st.hostMems, st.ctx, st.progress = p, hostMems, cfg.Ctx, cfg.Progress
	st.sent, st.wordCount = [2]int{}, 0
	st.mem, st.iter = sized(st.mem, p.code.MemWords*n), sized(st.iter, p.code.Depth)
	clear(st.iter)
	run := p.runCell // one problem keeps the words' one-wide body
	if n > 1 {
		run = p.runLanes
	}
	for ch, words := range p.counts.Send {
		st.hostIn[ch] = hostgen.NewReader(p.host.In[w2.Channel(ch)])
		st.hostOut[ch] = hostgen.NewReader(p.host.Out[w2.Channel(ch)])
		if p.cells > 1 { // the one cell of an array of one talks to the host alone
			st.prev[ch], st.cur[ch] = sized(st.prev[ch], int(words)*n)[:0], sized(st.cur[ch], int(words)*n)[:0]
		}
	}
	for i := 0; i < p.cells; i++ {
		if err := run(st, i); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		// This cell's output becomes the next cell's input; the spent
		// input buffer is recycled as the next output buffer.
		for ch := range st.cur {
			st.prev[ch], st.cur[ch] = st.cur[ch], st.prev[ch][:0]
		}
	}
	if cfg.Progress != nil {
		cfg.Progress(obs.ProgressUpdate{Cycles: p.cycles, Done: true})
	}
	return p.result(st), nil
}

// runCell runs the plan for one cell: the one-wide body, over the ops
// Compile lowered the words to, its FPU results landing through
// mcode.CellRegs as the simulator's do.  A word's read ops see the
// registers as they stand; its write ops come after the FPU results due
// by the next cycle land, in the machine's (landing cycle, issue order).
func (p *Plan) runCell(st *execState, idx int) error {
	first, last := idx == 0, idx == p.cells-1
	polled := st.ctx != nil || st.progress != nil
	r := &st.cell
	r.Reset()
	// The word's stores held back past its loads.
	var stored [mcode.MemPorts]struct {
		addr int64
		val  float64
	}
	host, mem := st.hostMems[0], st.mem
	clear(mem)
	steps, ops, mems := p.low.steps, p.low.ops, p.low.mems
	// The left neighbour's words, how many of each channel are consumed,
	// and this cell's own (handed back once it retires).
	prev, cur := st.prev, st.cur
	var pos [2]int

	s := mcode.Seq{Iter: st.iter}
	for t := int64(0); s.PC < len(steps); t++ {
		w := &steps[s.PC]
		if polled {
			if err := st.poll(idx, t); err != nil {
				return err
			}
		}
		if w.skip > 0 {
			// FPU results that land during the idle cycles are visible to
			// this word's reads.
			t += w.skip
			r.Land(t)
		}
		for i := w.lo; i < w.mid; i++ {
			switch o := &ops[i]; o.kind {
			case opSend:
				if !last {
					cur[o.x] = append(cur[o.x], r.R[o.a])
					continue
				}
				hw := st.hostOut[o.x].Next()
				if hw == nil {
					return st.sentMore(w2.Channel(o.x))
				}
				if err := hw.Out(host, r.R[o.a]); err != nil {
					return fmt.Errorf("fastexec: %w", err)
				}
				st.sent[o.x]++
			case opStore:
				mem[p.addr(&mems[o.x], s.Iter)] = r.R[o.a]
			case opStoreHold:
				stored[o.b].addr, stored[o.b].val = p.addr(&mems[o.x], s.Iter), r.R[o.a]
			case opFadd:
				r.PushAt(mcode.Reg(o.dst), r.R[o.a]+r.R[o.b], t+mcode.FPULatency)
			case opFsub:
				r.PushAt(mcode.Reg(o.dst), r.R[o.a]-r.R[o.b], t+mcode.FPULatency)
			case opFmul:
				r.PushAt(mcode.Reg(o.dst), r.R[o.a]*r.R[o.b], t+mcode.FPULatency)
			case opEval:
				v, err := p.low.alus[o.x].Eval(&r.R)
				if err != nil {
					return fmt.Errorf("fastexec: %w", err)
				}
				r.PushAt(mcode.Reg(o.dst), v, t+mcode.FPULatency)
			case opMov:
				r.Hold(mcode.Reg(o.dst), r.R[o.a])
			}
		}
		r.Land(t + 1)
		for i := w.mid; i < w.hi; i++ {
			switch o := &ops[i]; o.kind {
			case opRecv:
				if first {
					hw := st.hostIn[o.x].Next()
					if hw == nil {
						return st.ranDry(w2.Channel(o.x))
					}
					v, err := hw.In(host)
					if err != nil {
						return fmt.Errorf("fastexec: %w", err)
					}
					r.R[o.dst] = v
					continue
				}
				in, n := prev[o.x], pos[o.x]
				if n >= len(in) {
					return fmt.Errorf("fastexec: queue cell%d.%s underflows (receive before the matching send)", idx, w2.Channel(o.x))
				}
				r.R[o.dst] = in[n]
				pos[o.x] = n + 1
			case opLoad:
				r.R[o.dst] = mem[p.addr(&mems[o.x], s.Iter)]
			case opStoreLand:
				mem[stored[o.b].addr] = stored[o.b].val
			case opCommit:
				r.Commit()
			case opLit:
				r.R[o.dst] = p.low.lits[o.x]
			}
		}
		if w.endLo == w.endHi {
			s.PC++
		} else {
			s.Advance(int(w.depth), p.code.Ends[w.endLo:w.endHi])
		}
	}
	// Writes still in flight when the cell retires are never observed:
	// the simulator stops stepping a finished cell the same way.
	st.cur = cur
	return nil
}

// runLanes is runCell for n problems at once: the same words under one
// sequencer, the same order of reads and landings within a word, every
// value n lanes wide, its writes landing through mcode.LaneRegs.  What
// amortizes is the walk itself — field dispatch, address arithmetic,
// sequencing — most of what a small run costs.
func (p *Plan) runLanes(st *execState, idx int) error {
	first, last := idx == 0, idx == p.cells-1
	polled := st.ctx != nil || st.progress != nil
	n, r, mem := len(st.hostMems), &st.lanes, st.mem
	st.laneVals = sized(st.laneVals, mcode.LaneRegWords*n)
	r.Reset(n, st.laneVals)
	clear(mem)
	var pos [2]int

	s := mcode.Seq{Iter: st.iter}
	for t := int64(0); s.PC < len(p.code.Words); t++ {
		w := &p.code.Words[s.PC]
		if polled {
			if err := st.poll(idx, t); err != nil {
				return err
			}
		}
		if w.Skip > 0 {
			t += w.Skip
			r.Land(t)
		}
		for _, io := range p.code.IO[w.IOLo:w.RecvLo] {
			if !last {
				st.cur[io.Ch] = append(st.cur[io.Ch], r.Lanes(io.Reg)...)
			} else if err := st.hostCollect(io.Ch, r.Lanes(io.Reg)); err != nil {
				return err
			}
		}
		// Loads are held and read before the word's stores land; stores
		// read the registers before any write does.
		for pi := range w.Mem {
			if m := &w.Mem[pi]; m.Kind == mcode.MemLoad {
				copy(r.Hold(m.Reg), mem[int(p.addr(m, s.Iter))*n:][:n])
			}
		}
		for pi := range w.Mem {
			if m := &w.Mem[pi]; m.Kind == mcode.MemStore {
				copy(mem[int(p.addr(m, s.Iter))*n:][:n], r.Lanes(m.Reg))
			}
		}
		if err := r.Issue(w, t); err != nil {
			return fmt.Errorf("fastexec: %w", err)
		}
		// Receives land after the FPU results due by t+1 and before the
		// held writes, as in runCell.
		r.Land(t + 1)
		for _, io := range p.code.IO[w.RecvLo:w.IOHi] {
			if first {
				if err := st.hostWords(io.Ch, r.Lanes(io.Reg)); err != nil {
					return err
				}
				continue
			}
			in, at := st.prev[io.Ch], pos[io.Ch]*n
			if at >= len(in) {
				return fmt.Errorf("fastexec: queue cell%d.%s underflows (receive before the matching send)", idx, io.Ch)
			}
			copy(r.Lanes(io.Reg), in[at:at+n])
			pos[io.Ch]++
		}
		r.Retire(w)
		s.Advance(w.Depth, p.code.Ends[w.EndLo:w.EndHi])
	}
	return nil
}

// result assembles the modeled statistics and run profile.
func (p *Plan) result(st *execState) *Result {
	res := &Result{
		CellFinish: make([]int64, p.cells),
		AddOps:     p.counts.AddOps * int64(p.cells),
		MulOps:     p.counts.MulOps * int64(p.cells),
		Sent:       make(map[w2.Channel]int, len(st.sent)),
		Cycles:     p.cycles,
	}
	for ci, n := range st.sent {
		if n > 0 {
			res.Sent[w2.Channel(ci)] = n
		}
	}
	prof := &obs.Profile{
		Cells:  p.cells,
		Cycles: p.cycles,
		Skew:   p.skew,
		Lead:   p.lead,
		Cell:   make([]obs.CellProfile, p.cells),
	}
	last := p.cycles - 1
	for i := 0; i < p.cells; i++ {
		start := p.lead + int64(i)*p.skew
		finish := start + max(p.counts.Cycles-1, 0)
		res.CellFinish[i] = finish
		res.CellActive += finish - start
		prof.Cell[i] = obs.CellProfile{
			Start:  start,
			Finish: finish,
			AddOps: p.counts.AddOps, MulOps: p.counts.MulOps, MovOps: p.counts.MovOps,
			Loads: p.counts.Loads, Stores: p.counts.Stores,
			Busy:     p.counts.Ops,
			Bubble:   p.counts.Cycles - p.counts.Ops, // idle issue slots; the starved split needs queue timing
			SkewLead: int64(i) * p.skew,
			Drain:    last - finish,
		}
	}
	res.Obs = prof
	return res
}
