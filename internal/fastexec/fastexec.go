// Package fastexec executes compiled Warp programs at dataflow speed: a
// mode of the one machine model the cycle-accurate simulator
// (internal/sim) steps, not a second one.  The simulator steps every cell
// every clock tick under real queues and pops every address and loop
// signal off the IU's streams; for a *verified* program that re-derives
// what the static verifier has proven.  So a plan is the decoded cell
// program the simulator steps (mcode.Decode), run per cell directly over
// host slices with addresses from its bound affine terms, its writes
// landing through mcode.CellRegs as the simulator's do.  The plan walks
// the decoded program's own op stream; Compile only partitions each
// word's ops, in stream order, into its reads (sends, stores, FPU fields,
// moves), which see the registers as they stand, and its writes
// (receives, loads), which land after the FPU results due by the next
// cycle: the order the machine lands them in, with only the moves (and
// the loads of a word that also stores) held to the end of the cycle,
// by a move closing the word's writes.  A plan is as large as the
// microcode, whatever the trip counts.
//
// W2 has no data-dependent control and the IU generates every address
// and loop signal, so one walk of a plan serves any number of problems
// (ExecuteBatch): words, sequencing and addresses are shared, and each
// register, memory word, stream word and FPU FIFO entry holds a value per
// problem.  One problem alone keeps a one-wide body over the ops
// (runCell): the lane-wide body (runLanes) runs one problem 2.3–2.9×
// slower.
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
// A plan is built from the program loaded once (sim.Load): the decoded
// words and the count the simulator reads too.  Cycle counts and the
// profile are not measured but *modeled*: a verified program never
// stalls, so a run's record is the simulator's closed form of the
// program (sim.Loaded.Closed) — what the simulator reports, but for its
// split of idle cycles.
//
// A plan is built only for a verified program: CompileLoaded takes the
// verifier's report, and Compile verifies the program itself.  What the
// plan takes on trust is what verify proves — trip counts, rightward
// flow, the host streams' lengths, every address the IU sends the one
// the memory field names and within the words the fields are bound to,
// every loop signal the sequencer's decision — so the build only decodes
// and lowers, in time and space as large as the microcode.
package fastexec

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/sim"
	"warp/internal/verify"
	"warp/internal/w2"
)

// ctxCheckInterval is how often (in executed plan words) the executor
// polls Controls.Ctx, mirroring the simulator's bounded cancellation
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
	load  *sim.Loaded // the program: its decode, its count, its record
	cells int
	host  *hostgen.Program

	code mcode.Decoded
	// The plan's view of the code (partition): its words, their op ranges
	// into ops, where each word's reads come before its writes, which
	// begin at ops[writes[word]].
	words  []mcode.Word
	ops    []mcode.Op
	writes []int32
	counts mcode.CellCounts // one cell's run, the load's count
}

// Cycles returns the modeled machine time of a run: the cycle count the
// cycle-accurate simulator would report.
func (p *Plan) Cycles() int64 { return p.load.Cycles() }

// Ops returns the dynamic non-nop microinstructions one cell executes.
func (p *Plan) Ops() int { return int(p.counts.Ops) }

// Words returns the plan's size in words: static, whatever the trip
// counts.
func (p *Plan) Words() int { return len(p.code.Words) }

// Compile builds an execution plan: it verifies the program
// (verify.Verify), loads it (sim.Load) and builds the plan from the load
// and the report (CompileLoaded).
func Compile(p Program) (*Plan, error) {
	if p.Cells < 1 {
		return nil, fmt.Errorf("fastexec: need at least one cell")
	}
	if p.Cell == nil || p.IU == nil || p.Host == nil {
		return nil, fmt.Errorf("fastexec: incomplete program (cell, IU and host programs are all required)")
	}
	rep, err := verify.Verify(verify.Program{Cells: p.Cells, Cell: p.Cell, IU: p.IU, Host: p.Host, Skew: p.Skew, Lead: p.Lead})
	if err != nil {
		return nil, fmt.Errorf("fastexec: %w", err)
	}
	return CompileLoaded(sim.Load(sim.Config{Cells: p.Cells, Cell: p.Cell, IU: p.IU, Host: p.Host, Skew: p.Skew, Lead: p.Lead}), rep)
}

// CompileLoaded builds the execution plan of a loaded program from its
// decoded words and its count.  rep is the report verify.Verify returned
// for the same program, the proof of what the plan takes on trust; a nil
// report builds nothing.
func CompileLoaded(l *sim.Loaded, rep *verify.Report) (*Plan, error) {
	if rep == nil {
		return nil, fmt.Errorf("fastexec: no verification report: a plan is built only for a verified program")
	}
	return build(l)
}

// build decodes and lowers.
func build(l *sim.Loaded) (*Plan, error) {
	counts, err := l.Count()
	if err != nil {
		return nil, fmt.Errorf("fastexec: %w", err)
	}
	code, err := l.Code()
	if err != nil {
		return nil, fmt.Errorf("fastexec: %w", err)
	}
	p := l.Config()
	plan := &Plan{load: l, cells: p.Cells, host: p.Host, code: *code, counts: counts}
	plan.words, plan.ops, plan.writes = partition(code)
	return plan, nil
}

// partition returns the plan's view of the code: its words, each word's
// ops with its reads — sends, stores, FPU fields, moves — before its
// writes — receives, loads — each in stream order, and where each word's
// writes begin.  A word that loads and stores reads its loads first of
// all, held to the end of its cycle: a load reads the memory as it stood
// before the word's stores.  A word that holds a write (a move or such a
// load) ends with a move among its writes, which lands them: the commit
// an op, paid for only by the words that hold.
func partition(code *mcode.Decoded) (words []mcode.Word, ops []mcode.Op, writes []int32) {
	words, writes = slices.Clone(code.Words), make([]int32, len(code.Words))
	ops = make([]mcode.Op, 0, len(code.Ops)+len(code.Words))
	for i := range words {
		w := &words[i]
		word := code.Ops[w.Lo:w.Hi]
		stores := slices.ContainsFunc(word, func(o mcode.Op) bool { return o.Kind == mcode.OpStore })
		holds := false
		w.Lo = int32(len(ops))
		for class := range 3 {
			if class == 2 {
				writes[i] = int32(len(ops))
			}
			for _, o := range word {
				if c := phase(o.Kind, stores); c == class {
					ops = append(ops, o)
					holds = holds || c < 2 && (o.Kind == mcode.OpMov || o.Kind == mcode.OpLoad)
				}
			}
		}
		if holds {
			ops = append(ops, mcode.Op{Kind: mcode.OpMov})
		}
		w.Hi = int32(len(ops))
	}
	return words, ops, writes
}

// phase is the class the partition puts an op of a word in: 0 a held
// load (the word stores), 1 a read, 2 a write.
func phase(k mcode.OpKind, stores bool) int {
	switch {
	case k == mcode.OpLoad && stores:
		return 0
	case k == mcode.OpRecv || k == mcode.OpLoad:
		return 2
	}
	return 1
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

// ExecConfig names the run controls, the simulator's own; kept for
// benchmark/, see ROADMAP 1(c).
type ExecConfig = sim.Controls

// Result names the run record, the simulator's own; kept for
// benchmark/, see ROADMAP 1(c).
type Result = sim.Stats

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

	// untilPoll counts a polled run's words down to the next poll, across
	// cells: 1 at the start, so that the first word polls, then
	// ctxCheckInterval.
	untilPoll int64
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
	return nil
}

// ranDry reports cell 0 receiving past the end of a host input stream.
func (st *execState) ranDry(ch w2.Channel) error {
	return fmt.Errorf("fastexec: host input stream on %s ran dry after %d words", ch, st.plan.host.In[ch].Words())
}

// sentMore reports the last cell sending past the end of a host output
// stream.
func (st *execState) sentMore(ch w2.Channel) error {
	return fmt.Errorf("fastexec: the last cell sent more words on %s than the host program expects (%d)", ch, st.plan.host.Out[ch].Words())
}

// poll counts an executed plan word down and, once a stride, checks for
// cancellation and reports progress: t is the cell cycle cell idx has
// reached.  It inlines into the executor bodies; check does not.
func (st *execState) poll(idx int, t int64) error {
	if st.untilPoll--; st.untilPoll > 0 {
		return nil
	}
	st.untilPoll = ctxCheckInterval
	return st.check(idx, t)
}

func (st *execState) check(idx int, t int64) error {
	if st.ctx != nil {
		if err := st.ctx.Err(); err != nil {
			return fmt.Errorf("fastexec: run aborted: %w", err)
		}
	}
	if p := st.plan; st.progress != nil {
		// Cells run one after another: the cell cycles retired so far,
		// scaled onto the modeled cycle axis, are a monotone position.
		done := int64(idx)*p.counts.Cycles + t
		st.progress(obs.ProgressUpdate{Cycles: p.Cycles() * done / (int64(p.cells) * p.counts.Cycles)})
	}
	return nil
}

// Execute runs the plan over a host memory image (inputs pre-loaded;
// outputs written in place) and returns the run record the simulator
// would, in closed form: the load's sim.Loaded.Closed record — the
// modeled cycles, each cell's finish, FPU issues, words sent and the
// cells' profiles, depth rows included, every scheduled idle cycle a
// bubble (the starved/bubble split needs queue timing only the
// simulator has).  Backend and Decision are left to the caller, as
// sim.Run leaves them, and so are the queue peaks, which a run without
// queues never observes.  The plan is read-only: concurrent
// Execute calls on one Plan are safe.
func (p *Plan) Execute(hostMem []float64, ctl sim.Controls) (*sim.Stats, error) {
	return p.ExecuteBatch([][]float64{hostMem}, ctl)
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
// bit-identical to what Execute leaves in it and the Stats are
// Execute's; an error (a divide by zero names its lane) fails the whole
// batch, its images half written.  The controls mean what they mean on
// the simulator; a progress update carries the cell cycles retired so
// far (cells run one after another) scaled onto the modeled cycle count.
func (p *Plan) ExecuteBatch(hostMems [][]float64, ctl sim.Controls) (*sim.Stats, error) {
	if len(hostMems) == 0 {
		return nil, fmt.Errorf("fastexec: an empty batch")
	}
	// The simulator aborts when its clock passes the guard before the
	// last cell retires, i.e. whenever the run needs more than limit+1
	// cycles; the modeled count makes the same decision without running.
	if limit := ctl.Limit(); p.Cycles() > limit+1 {
		return nil, fmt.Errorf("fastexec: modeled run needs %d cycles, exceeding %d; the machine is %w",
			p.Cycles(), limit, sim.ErrLivelock)
	}
	if ctl.Ctx != nil {
		if err := ctl.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("fastexec: run aborted: %w", err)
		}
	}

	n := len(hostMems)
	st := statePool.Get().(*execState)
	defer func() {
		st.hostMems, st.ctx, st.progress = nil, nil, nil // the pool must not keep a caller's memory alive
		statePool.Put(st)
	}()
	st.plan, st.hostMems, st.ctx, st.progress = p, hostMems, ctl.Ctx, ctl.Progress
	st.untilPoll = 1
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
	if ctl.Progress != nil {
		ctl.Progress(obs.ProgressUpdate{Cycles: p.Cycles(), Done: true})
	}
	return p.load.Closed(false), nil
}

// runCell runs the plan for one cell: the one-wide body, over the
// partitioned ops, its FPU results landing through mcode.CellRegs as the
// simulator's do.  A word's reads see the registers as they stand; its
// writes come after the FPU results due by the next cycle land, then its
// held writes (Commit) and its literal, in the machine's (landing cycle,
// issue order).
func (p *Plan) runCell(st *execState, idx int) error {
	first, last := idx == 0, idx == p.cells-1
	polled := st.ctx != nil || st.progress != nil
	r := &st.cell
	r.Reset()
	host, mem := st.hostMems[0], st.mem
	clear(mem)
	words, ops, mems := p.words, p.ops, p.code.Mems
	writes := p.writes[:len(words)]
	// The left neighbour's words, how many of each channel are consumed,
	// and this cell's own (handed back once it retires).
	prev, cur := st.prev, st.cur
	var pos [2]int

	s := mcode.Seq{Iter: st.iter}
	for t := int64(0); s.PC < len(words); t++ {
		w, mid := &words[s.PC], writes[s.PC]
		if polled {
			if err := st.poll(idx, t); err != nil {
				return err
			}
		}
		if w.Skip > 0 {
			// FPU results that land during the idle cycles are visible to
			// this word's reads.
			t += int64(w.Skip)
			r.Land(t)
		}
		for i := w.Lo; i < mid; i++ {
			switch o := &ops[i]; o.Kind {
			case mcode.OpSend:
				if !last {
					cur[o.X] = append(cur[o.X], r.R[o.A])
					continue
				}
				hw := st.hostOut[o.X].Next()
				if hw == nil {
					return st.sentMore(w2.Channel(o.X))
				}
				if err := hw.Out(host, r.R[o.A]); err != nil {
					return fmt.Errorf("fastexec: %w", err)
				}
			case mcode.OpLoad: // the word also stores
				r.Hold(mcode.Reg(o.Dst), mem[p.addr(&mems[o.X], s.Iter)])
			case mcode.OpStore:
				mem[p.addr(&mems[o.X], s.Iter)] = r.R[o.A]
			case mcode.OpFadd:
				r.PushAt(mcode.Reg(o.Dst), r.R[o.A]+r.R[o.B], t+mcode.FPULatency)
			case mcode.OpFsub:
				r.PushAt(mcode.Reg(o.Dst), r.R[o.A]-r.R[o.B], t+mcode.FPULatency)
			case mcode.OpFmul:
				r.PushAt(mcode.Reg(o.Dst), r.R[o.A]*r.R[o.B], t+mcode.FPULatency)
			case mcode.OpEval:
				v, err := o.Eval(&r.R)
				if err != nil {
					return fmt.Errorf("fastexec: %w", err)
				}
				r.PushAt(mcode.Reg(o.Dst), v, t+mcode.FPULatency)
			case mcode.OpMov:
				r.Hold(mcode.Reg(o.Dst), r.R[o.A])
			}
		}
		r.Land(t + 1)
		for i := mid; i < w.Hi; i++ {
			switch o := &ops[i]; o.Kind {
			case mcode.OpRecv:
				if first {
					hw := st.hostIn[o.X].Next()
					if hw == nil {
						return st.ranDry(w2.Channel(o.X))
					}
					v, err := hw.In(host)
					if err != nil {
						return fmt.Errorf("fastexec: %w", err)
					}
					r.R[o.Dst] = v
					continue
				}
				in, n := prev[o.X], pos[o.X]
				if n >= len(in) {
					return fmt.Errorf("fastexec: queue cell%d.%s underflows (receive before the matching send)", idx, w2.Channel(o.X))
				}
				r.R[o.Dst] = in[n]
				pos[o.X] = n + 1
			case mcode.OpLoad:
				r.R[o.Dst] = mem[p.addr(&mems[o.X], s.Iter)]
			case mcode.OpMov: // the word's held writes land
				r.Commit()
			}
		}
		if w.Lit {
			r.R[w.LitDst] = p.code.Lits[s.PC]
		}
		if w.EndLo == w.EndHi {
			s.PC++
		} else {
			s.Advance(int(w.Depth), p.code.Ends[w.EndLo:w.EndHi])
		}
	}
	// Writes still in flight when the cell retires are never observed:
	// the simulator stops stepping a finished cell the same way.
	st.cur = cur
	return nil
}

// runLanes is runCell for n problems at once: the same ops under one
// sequencer, in the same order of reads and landings within a word,
// every value n lanes wide, its writes landing through mcode.LaneRegs.
// What amortizes is the walk itself — op dispatch, address arithmetic,
// sequencing — most of what a small run costs.
func (p *Plan) runLanes(st *execState, idx int) error {
	first, last := idx == 0, idx == p.cells-1
	polled := st.ctx != nil || st.progress != nil
	n, r, mem := len(st.hostMems), &st.lanes, st.mem
	st.laneVals = sized(st.laneVals, mcode.LaneRegWords*n)
	r.Reset(n, st.laneVals)
	clear(mem)
	words, ops, mems := p.words, p.ops, p.code.Mems
	var pos [2]int

	s := mcode.Seq{Iter: st.iter}
	for t := int64(0); s.PC < len(words); t++ {
		w, mid := &words[s.PC], p.writes[s.PC]
		if polled {
			if err := st.poll(idx, t); err != nil {
				return err
			}
		}
		if w.Skip > 0 {
			t += int64(w.Skip)
			r.Land(t)
		}
		for i := w.Lo; i < mid; i++ {
			switch o := &ops[i]; o.Kind {
			case mcode.OpSend:
				v := r.Lanes(mcode.Reg(o.A))
				if !last {
					st.cur[o.X] = append(st.cur[o.X], v...)
				} else if err := st.hostCollect(w2.Channel(o.X), v); err != nil {
					return err
				}
			case mcode.OpLoad: // the word also stores
				copy(r.Hold(mcode.Reg(o.Dst)), mem[int(p.addr(&mems[o.X], s.Iter))*n:][:n])
			case mcode.OpStore:
				copy(mem[int(p.addr(&mems[o.X], s.Iter))*n:][:n], r.Lanes(mcode.Reg(o.A)))
			default:
				if err := r.Exec(o, t); err != nil {
					return fmt.Errorf("fastexec: %w", err)
				}
			}
		}
		r.Land(t + 1)
		for i := mid; i < w.Hi; i++ {
			switch o := &ops[i]; o.Kind {
			case mcode.OpRecv:
				dst := r.Lanes(mcode.Reg(o.Dst))
				if first {
					if err := st.hostWords(w2.Channel(o.X), dst); err != nil {
						return err
					}
					continue
				}
				in, at := st.prev[o.X], pos[o.X]*n
				if at >= len(in) {
					return fmt.Errorf("fastexec: queue cell%d.%s underflows (receive before the matching send)", idx, w2.Channel(o.X))
				}
				copy(dst, in[at:at+n])
				pos[o.X]++
			case mcode.OpLoad:
				copy(r.Lanes(mcode.Reg(o.Dst)), mem[int(p.addr(&mems[o.X], s.Iter))*n:][:n])
			case mcode.OpMov: // the word's held writes land
				r.Commit()
			}
		}
		if w.Lit {
			r.Set(mcode.Reg(w.LitDst), p.code.Lits[s.PC])
		}
		s.Advance(int(w.Depth), p.code.Ends[w.EndLo:w.EndHi])
	}
	return nil
}
