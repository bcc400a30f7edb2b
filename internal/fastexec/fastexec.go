// Package fastexec executes compiled Warp programs at dataflow speed,
// without cycle-accurate lock-step simulation.
//
// The cycle-accurate simulator (internal/sim) advances the whole
// machine one clock tick at a time: every cell is stepped every cycle,
// scheduled nops included, pending-write lists are scanned, queues are
// tracked.  For a *verified* program all of that re-derives guarantees
// the static verifier has already proven — queues never under- or
// overflow, every address and loop signal arrives on time, the machine
// never stalls.  This package exploits those proofs: it decodes the
// representative cell's microcode into a plan that keeps the program's
// loops — one pointer-free word per static microinstruction that issues
// a field or closes a loop, runs of idle words folded into a skip count,
// every memory field's address bound to the iteration numbers of the
// loops around it — and runs that nest per cell directly over host
// slices.  A plan is as large as the microcode, whatever the trip counts:
// the paper's 512×512 colorseg plans in a few kilobytes.  The machine
// model is not re-implemented here: the IU microprogram is elaborated by
// mcode.IUCode.Elaborate, the plan is stepped by mcode's sequencer, FPU
// fields evaluate through mcode.AluOp.Eval and addresses are bound by
// mcode.AddrInfo.Bind — the definitions the simulator and the host
// program generator use.
//
// W2 has no data-dependent control and the IU generates every address
// and loop signal, so one walk of a plan serves any number of problems
// (ExecuteBatch): words, sequencing and addresses are shared, and each
// register, memory word, stream word and FPU FIFO entry holds a value per
// problem.  One problem alone keeps a one-wide body over the same words
// (runCell): the lane-wide body runs one problem at half its speed.
//
// The run is bit-exact with the simulator:
//
//   - Writes land late exactly as in hardware, on the two latencies the
//     machine has.  FPU results wait in one small FIFO (equal latency, so
//     issue order is landing order); receives, loads, moves and literals
//     are applied at the end of the word that issues them, after the FPU
//     results landing by the next cycle.  That is the simulator's
//     (landing cycle, issue order), same-cycle write-after-write
//     included.
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

// fifoSlots holds the FPU results in flight in one cell: at most three
// fields a word, each landing FPULatency cycles later (a power of two).
const fifoSlots = 16

var _ [fifoSlots - 3*mcode.FPULatency]struct{} // does not compile if the FIFO is too small

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

// ioField is one queue-port operation of a word.
type ioField struct {
	ch  w2.Channel
	reg mcode.Reg
}

const (
	memNone = iota
	memLoad
	memStore
)

// memField is one memory-port field.  Its address, with the enclosing
// loops at iterations iter, is start + Σ Coef·iter[Depth] over the plan's
// terms[termLo:termHi], counted from the plan's memLo.
type memField struct {
	kind           uint8
	reg            mcode.Reg
	start          int64
	termLo, termHi int32
}

// word is one microinstruction of the plan: skip idle cycles, then the
// fields of one cycle, then the loops it closes (the plan's
// ends[endLo:endHi], heads remapped to plan words).
type word struct {
	skip               int64
	depth              int
	ioLo, recvLo, ioHi int32 // the plan's io[ioLo:recvLo] are the word's sends, io[recvLo:ioHi] its receives
	endLo, endHi       int32
	mem                [mcode.MemPorts]memField

	loads, stores, hasAdd, hasMul, hasMov, hasLit bool
	add, mul, mov                                 mcode.AluOp
	lit                                           mcode.LitOp
}

// Plan is a compiled execution plan.  It is immutable after Compile and
// safe for concurrent Execute calls.
type Plan struct {
	cells      int
	skew, lead int64
	cellCycles int64
	cycles     int64 // modeled machine time, closed form
	host       *hostgen.Program

	words []word
	io    []ioField
	terms []mcode.LoopTerm
	ends  []mcode.LoopEnd
	depth int // deepest loop nesting: iteration counters a run needs

	// The envelope of the addresses the memory fields are bound to: cell
	// memory words memLo up to memLo+memWords are all a run holds.
	memLo    int64
	memWords int

	// Per-cell dynamic-operation counts of one run, in closed form.
	ops, addOps, mulOps, movOps int64
	loads, stores               int64
	send                        [2]int // words a cell sends on X, Y
}

// Cycles returns the modeled machine time of a run: the cycle count the
// cycle-accurate simulator would report.
func (p *Plan) Cycles() int64 { return p.cycles }

// Ops returns the dynamic non-nop microinstructions one cell executes.
func (p *Plan) Ops() int { return int(p.ops) }

// Words returns the plan's size in words: static, whatever the trip
// counts.
func (p *Plan) Words() int { return len(p.words) }

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
	cellCycles := p.Cell.Cycles()
	if cellCycles > maxTraceCycles {
		return nil, fmt.Errorf("fastexec: cell program unrolls to %d cycles, over the %d-cycle trace cap", cellCycles, maxTraceCycles)
	}
	if iuCycles := p.IU.Cycles(); iuCycles > maxTraceCycles {
		return nil, fmt.Errorf("fastexec: IU program unrolls to %d cycles, over the %d-cycle trace cap", iuCycles, maxTraceCycles)
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
	code, err := mcode.DecodeCell(p.Cell)
	if err != nil {
		return nil, fmt.Errorf("fastexec: %w", err)
	}
	for i := range code.Words {
		if err := positiveTrips("loop", code.Words[i].Ends); err != nil {
			return nil, err
		}
	}

	counts := mcode.CountCell(p.Cell)
	plan := &Plan{
		cells:      p.Cells,
		skew:       p.Skew,
		lead:       p.Lead,
		cellCycles: cellCycles,
		host:       p.Host,
		depth:      code.Depth,
		ops:        counts.Ops,
		send:       [2]int{int(counts.Send[w2.ChanX]), int(counts.Send[w2.ChanY])},
	}
	// The last cell finishes at Lead + (Cells-1)·Skew + CellCycles - 1;
	// the simulator's reported count is one past that.  An empty cell
	// program still costs its start cycle.
	plan.cycles = p.Lead + int64(p.Cells-1)*p.Skew + cellCycles
	if cellCycles == 0 {
		plan.cycles++
	}
	instrs, err := plan.decode(p.Cell, code)
	if err != nil {
		return nil, err
	}
	if err := plan.validate(iu, instrs); err != nil {
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
	}
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
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

// decode fills in the plan's words from the decoded cell program, whose
// order is WalkInstrs', and returns the instruction behind each word for
// validate's diagnostics.  Its work and the plan's size depend on the
// microcode alone.
func (p *Plan) decode(cell *mcode.CellProgram, code mcode.CellCode) ([]*mcode.Instr, error) {
	isHead := make([]bool, len(code.Words))
	for i := range code.Words {
		for _, e := range code.Words[i].Ends {
			isHead[e.Head] = true
		}
	}
	planPC := make([]int, len(code.Words)) // µPC → the first plan word at or after it
	var instrs []*mcode.Instr
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	pc, idle := 0, int64(0)
	lo, hi := float64(mcode.MemWords), float64(-1) // the envelope, empty so far
	mcode.WalkInstrs(cell.Items, func(in *mcode.Instr, loops []*mcode.LoopItem) {
		cw := &code.Words[pc]
		if isHead[pc] && idle > 0 {
			// An idle run ends at a loop head in a word of its own: the
			// back edge must count only the idle cycles inside the body.
			p.words = append(p.words, word{skip: idle - 1})
			instrs = append(instrs, nil)
			idle = 0
		}
		planPC[pc] = len(p.words)
		pc++
		if cw.Nop && len(cw.Ends) == 0 {
			idle++
			return
		}
		w := word{skip: idle, depth: cw.Depth, ioLo: int32(len(p.io)), endLo: int32(len(p.ends))}
		idle = 0
		runs := int64(1) // how often the word executes
		for _, l := range loops {
			runs *= l.Trips
		}
		for _, recv := range []bool{false, true} { // sends first: runCell reads registers before it writes any
			if recv {
				w.recvLo = int32(len(p.io))
			}
			for _, io := range in.IO {
				if io.Recv != recv {
					continue
				}
				if io.Recv {
					if io.Dir != w2.DirL {
						fail(fmt.Errorf("fastexec: receive from the right is not supported (rightward flow only)"))
					}
				} else if io.Dir != w2.DirR {
					fail(fmt.Errorf("fastexec: send to the left is not supported (rightward flow only)"))
				}
				f := ioField{ch: w2.ChanX, reg: io.Reg}
				if io.Chan == w2.ChanY {
					f.ch = w2.ChanY
				}
				p.io = append(p.io, f)
			}
		}
		w.ioHi = int32(len(p.io))
		for port, mo := range in.Mem {
			if mo == nil {
				continue
			}
			b, berr := mo.Addr.Bind(loops)
			if berr != nil {
				fail(fmt.Errorf("fastexec: address %w", berr))
			}
			lo, hi = min(lo, b.Lo), max(hi, b.Hi)
			m := memField{kind: memLoad, reg: mo.Reg, start: b.Start, termLo: int32(len(p.terms))}
			p.terms = append(p.terms, b.Terms...)
			m.termHi = int32(len(p.terms))
			if mo.Store {
				m.kind, w.stores = memStore, true
				p.stores += runs
			} else {
				w.loads = true
				p.loads += runs
			}
			w.mem[port] = m
		}
		if in.Add != nil {
			w.hasAdd, w.add = true, *in.Add
			p.addOps += runs
		}
		if in.Mul != nil {
			w.hasMul, w.mul = true, *in.Mul
			p.mulOps += runs
		}
		if in.Mov != nil {
			w.hasMov, w.mov = true, *in.Mov
			p.movOps += runs
		}
		if in.Lit != nil {
			w.hasLit, w.lit = true, *in.Lit
		}
		for _, e := range cw.Ends {
			e.Head = planPC[e.Head]
			p.ends = append(p.ends, e)
		}
		w.endHi = int32(len(p.ends))
		p.words = append(p.words, w)
		instrs = append(instrs, in)
	})
	// Addresses count from the envelope's low end, cut to the cell memory:
	// validate refuses the program if a walked address falls outside it.
	p.memLo = int64(max(lo, 0))
	p.memWords = int(max(min(hi, mcode.MemWords-1)-float64(p.memLo)+1, 0))
	for i := range p.words {
		for port := range p.words[i].mem {
			p.words[i].mem[port].start -= p.memLo
		}
	}
	return instrs, err
}

// addr is the address a memory field references with the enclosing
// loops at iterations iter.
func (p *Plan) addr(m *memField, iter []int64) int64 {
	a := m.start
	for _, t := range p.terms[m.termLo:m.termHi] {
		a += t.Coef * iter[t.Depth]
	}
	return a
}

// validate steps the plan once, as Execute will, against the streams the
// IU emits in the order the hardware pops them: one address per memory
// reference — in range, and the address the field's metadata names —
// and one loop signal per boundary crossed.
func (p *Plan) validate(iu *mcode.IUTrace, instrs []*mcode.Instr) error {
	s := mcode.Seq{Iter: make([]int64, p.depth)}
	adrs, sigs := iu.Adr, iu.Sigs
	for t := int64(0); s.PC < len(p.words); t++ {
		w, in := &p.words[s.PC], instrs[s.PC]
		t += w.skip
		for port := range w.mem {
			m := &w.mem[port]
			if m.kind == memNone {
				continue
			}
			if len(adrs) == 0 {
				return fmt.Errorf("fastexec: the IU address stream ran dry at cycle %d, memory port %d", t, port)
			}
			addr, named := adrs[0].Val, in.Mem[port].Addr
			adrs = adrs[1:]
			if addr < 0 || addr >= mcode.MemWords {
				return fmt.Errorf("fastexec: address %d outside the %d-word cell memory (IU generated a bad address for %s)",
					addr, mcode.MemWords, named)
			}
			if want := p.memLo + p.addr(m, s.Iter); addr != want {
				return fmt.Errorf("fastexec: address mismatch at cycle %d, memory port %d: the IU sends %d where %s names %d",
					t, port, addr, named, want)
			}
			if addr < p.memLo || addr-p.memLo >= int64(p.memWords) {
				return fmt.Errorf("fastexec: address %d outside the %d words from %d that %s and the other fields are bound to",
					addr, p.memWords, p.memLo, named)
			}
		}
		// One IU control signal is consumed per loop boundary, innermost
		// first.
		ends := p.ends[w.endLo:w.endHi]
		crossed, again := s.Advance(w.depth, ends)
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

// regWrite is a register write waiting to land.
type regWrite struct {
	reg  mcode.Reg
	val  float64
	land int64 // landing cycle (FPU results only)
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

	// A batched walk's lanes: register r of problem l at regs[r·n+l], and
	// the values of the FPU FIFO's slots and of a word's held-back writes.
	regs, fifo, held []float64

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
		return fmt.Errorf("fastexec: host input stream on %s ran dry after %d words", ch, st.plan.host.In[ch].Words())
	}
	for l, hostMem := range st.hostMems {
		switch {
		case w.Literal:
			dst[l] = w.Value
		case w.Index < 0 || int(w.Index) >= len(hostMem):
			return fmt.Errorf("fastexec: host input index %d outside host memory of %d words", w.Index, len(hostMem))
		default:
			dst[l] = hostMem[w.Index]
		}
	}
	return nil
}

// hostCollect receives one word per problem from the last cell on a
// channel, mirroring the simulator's output sequencing (Discard entries
// are dummy sends with no destination).
func (st *execState) hostCollect(ch w2.Channel, vals []float64) error {
	w := st.hostOut[ch].Next()
	if w == nil {
		return fmt.Errorf("fastexec: the last cell sent more words on %s than the host program expects (%d)", ch, st.sent[ch])
	}
	if idx := int(w.Index); idx != hostgen.Discard {
		for l, hostMem := range st.hostMems {
			if idx < 0 || idx >= len(hostMem) {
				return fmt.Errorf("fastexec: host output index %d outside host memory of %d words", idx, len(hostMem))
			}
			hostMem[idx] = vals[l]
		}
	}
	st.sent[ch]++
	return nil
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
		done := int64(idx)*p.cellCycles + t
		st.progress(obs.ProgressUpdate{Cycles: p.cycles * done / (int64(p.cells) * p.cellCycles)})
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
	return 8 * (mcode.NumRegs + p.memWords + fifoSlots + mcode.MemPorts + 3 + 2*(p.send[0]+p.send[1]))
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

	n := len(hostMems)
	st := statePool.Get().(*execState)
	defer func() {
		st.hostMems, st.ctx, st.progress = nil, nil, nil // the pool must not keep a caller's memory alive
		statePool.Put(st)
	}()
	st.plan, st.hostMems, st.ctx, st.progress = p, hostMems, cfg.Ctx, cfg.Progress
	st.sent, st.wordCount = [2]int{}, 0
	st.mem, st.iter = sized(st.mem, p.memWords*n), sized(st.iter, p.depth)
	clear(st.iter)
	run := p.runCell // one problem keeps the words' one-wide body
	if n > 1 {
		run = p.runLanes
		st.regs, st.fifo = sized(st.regs, mcode.NumRegs*n), sized(st.fifo, fifoSlots*n)
		st.held = sized(st.held, (mcode.MemPorts+3)*n)
	}
	for ch, words := range p.send {
		st.hostIn[ch] = hostgen.NewReader(p.host.In[w2.Channel(ch)])
		st.hostOut[ch] = hostgen.NewReader(p.host.Out[w2.Channel(ch)])
		if p.cells > 1 { // the one cell of an array of one talks to the host alone
			st.prev[ch], st.cur[ch] = sized(st.prev[ch], words*n)[:0], sized(st.cur[ch], words*n)[:0]
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

// runCell runs the plan for one cell.
func (p *Plan) runCell(st *execState, idx int) error {
	first, last := idx == 0, idx == p.cells-1
	var regs [mcode.NumRegs]float64
	// FPU results in flight, oldest at head: all have the same latency,
	// so they land in the order they were issued.
	var fifo [fifoSlots]regWrite
	var head, tail uint
	// What the current word holds back to the end of its cycle: the
	// stores, and the ALU results that take one cycle.
	var stored [mcode.MemPorts]struct {
		addr int64
		val  float64
	}
	var moved [3]regWrite
	mem, words := st.mem, p.words
	clear(mem)
	// The left neighbour's words, how many of each channel are consumed,
	// and this cell's own (handed back once it retires).
	prev, cur := st.prev, st.cur
	var pos [2]int

	s := mcode.Seq{Iter: st.iter}
	for t := int64(0); s.PC < len(words); t++ {
		w := &words[s.PC]
		if st.ctx != nil || st.progress != nil {
			if err := st.poll(idx, t); err != nil {
				return err
			}
		}
		if w.skip > 0 {
			// FPU results that land during the idle cycles are visible to
			// this word's reads.
			t += w.skip
			for head != tail && fifo[head%fifoSlots].land <= t {
				r := &fifo[head%fifoSlots]
				regs[r.reg] = r.val
				head++
			}
		}

		// The cycle's reads: sends, stores and the FPU fields see the
		// registers as they stand.  Every field evaluates through the one
		// ALU table both executors share (divide-by-zero fault included);
		// one block per field on purpose: ranging over an array of the
		// three costs 10% of the whole run.
		for _, io := range p.io[w.ioLo:w.recvLo] {
			if !last {
				cur[io.ch] = append(cur[io.ch], regs[io.reg])
			} else if err := st.hostCollect(io.ch, regs[io.reg:][:1]); err != nil {
				return err
			}
		}
		nstored, nmoved := 0, 0
		if w.stores {
			for pi := range w.mem {
				if m := &w.mem[pi]; m.kind == memStore {
					stored[nstored].addr, stored[nstored].val = p.addr(m, s.Iter), regs[m.reg]
					nstored++
				}
			}
		}
		if w.hasAdd {
			v, err := w.add.Eval(&regs)
			if err != nil {
				return fmt.Errorf("fastexec: %w", err)
			}
			if lat := w.add.Code.Latency(); lat == 1 {
				moved[nmoved] = regWrite{reg: w.add.Dst, val: v}
				nmoved++
			} else {
				fifo[tail%fifoSlots] = regWrite{reg: w.add.Dst, val: v, land: t + lat}
				tail++
			}
		}
		if w.hasMul {
			v, err := w.mul.Eval(&regs)
			if err != nil {
				return fmt.Errorf("fastexec: %w", err)
			}
			if lat := w.mul.Code.Latency(); lat == 1 {
				moved[nmoved] = regWrite{reg: w.mul.Dst, val: v}
				nmoved++
			} else {
				fifo[tail%fifoSlots] = regWrite{reg: w.mul.Dst, val: v, land: t + lat}
				tail++
			}
		}
		if w.hasMov {
			v, err := w.mov.Eval(&regs)
			if err != nil {
				return fmt.Errorf("fastexec: %w", err)
			}
			if lat := w.mov.Code.Latency(); lat == 1 {
				moved[nmoved] = regWrite{reg: w.mov.Dst, val: v}
				nmoved++
			} else {
				fifo[tail%fifoSlots] = regWrite{reg: w.mov.Dst, val: v, land: t + lat}
				tail++
			}
		}

		// The cycle's end: a register sees the writes landing next cycle in
		// issue order — FPU results, issued cycles ago, then this word's
		// one-cycle writes in field order: IO, memory ports, ADD, MUL, MOV,
		// literal.  Loads read before the word's stores land.
		for head != tail && fifo[head%fifoSlots].land <= t+1 {
			r := &fifo[head%fifoSlots]
			regs[r.reg] = r.val
			head++
		}
		for _, io := range p.io[w.recvLo:w.ioHi] {
			if first {
				if err := st.hostWords(io.ch, regs[io.reg:][:1]); err != nil {
					return err
				}
				continue
			}
			in, n := prev[io.ch], pos[io.ch]
			if n >= len(in) {
				return fmt.Errorf("fastexec: queue cell%d.%s underflows (receive before the matching send)", idx, io.ch)
			}
			regs[io.reg] = in[n]
			pos[io.ch] = n + 1
		}
		if w.loads {
			for pi := range w.mem {
				if m := &w.mem[pi]; m.kind == memLoad {
					regs[m.reg] = mem[p.addr(m, s.Iter)]
				}
			}
		}
		for _, sw := range stored[:nstored] {
			mem[sw.addr] = sw.val
		}
		for _, r := range moved[:nmoved] {
			regs[r.reg] = r.val
		}
		if w.hasLit {
			regs[w.lit.Dst] = w.lit.Value
		}
		if w.endLo == w.endHi {
			s.PC++
		} else {
			s.Advance(w.depth, p.ends[w.endLo:w.endHi])
		}
	}
	// Writes still in flight when the cell retires are never observed:
	// the simulator stops stepping a finished cell the same way.
	st.cur = cur
	return nil
}

// runLanes is runCell for n problems at once: the same words under one
// sequencer, the same order of reads and landings within a word, every
// value n lanes wide.  What amortizes is the walk itself — field dispatch,
// address arithmetic, sequencing — most of what a small run costs.
func (p *Plan) runLanes(st *execState, idx int) error {
	first, last := idx == 0, idx == p.cells-1
	n, regs, mem := len(st.hostMems), st.regs, st.mem
	clear(regs)
	clear(mem)
	lanes := func(r mcode.Reg) []float64 { return regs[int(r)*n:][:n] }
	// The register and landing cycle of each FPU result in flight (its
	// values are st.fifo[slot·n:]), oldest at head.
	var fifo [fifoSlots]regWrite
	var head, tail uint
	land := func(t int64) {
		for ; head != tail && fifo[head%fifoSlots].land <= t; head++ {
			copy(lanes(fifo[head%fifoSlots].reg), st.fifo[int(head%fifoSlots)*n:][:n])
		}
	}
	// What the current word holds back to the end of its cycle (values in
	// st.held[i·n:]): its stores' addresses, then its one-cycle ALU
	// results' registers.
	var held [mcode.MemPorts + 3]int64
	var pos [2]int

	s := mcode.Seq{Iter: st.iter}
	for t := int64(0); s.PC < len(p.words); t++ {
		w := &p.words[s.PC]
		if err := st.poll(idx, t); err != nil {
			return err
		}
		if w.skip > 0 {
			t += w.skip
			land(t)
		}
		for _, io := range p.io[w.ioLo:w.recvLo] {
			if !last {
				st.cur[io.ch] = append(st.cur[io.ch], lanes(io.reg)...)
			} else if err := st.hostCollect(io.ch, lanes(io.reg)); err != nil {
				return err
			}
		}
		nstored := 0
		for pi := range w.mem {
			if m := &w.mem[pi]; m.kind == memStore {
				held[nstored] = p.addr(m, s.Iter)
				copy(st.held[nstored*n:][:n], lanes(m.reg))
				nstored++
			}
		}
		nheld := nstored
		for _, f := range [...]struct {
			on bool
			op *mcode.AluOp
		}{{w.hasAdd, &w.add}, {w.hasMul, &w.mul}, {w.hasMov, &w.mov}} {
			if !f.on {
				continue
			}
			var dst []float64
			if lat := f.op.Code.Latency(); lat == 1 {
				held[nheld], dst = int64(f.op.Dst), st.held[nheld*n:][:n]
				nheld++
			} else {
				fifo[tail%fifoSlots], dst = regWrite{reg: f.op.Dst, land: t + lat}, st.fifo[int(tail%fifoSlots)*n:][:n]
				tail++
			}
			if err := f.op.EvalBatch(dst, regs, n); err != nil {
				return fmt.Errorf("fastexec: %w", err)
			}
		}
		land(t + 1)
		for _, io := range p.io[w.recvLo:w.ioHi] {
			if first {
				if err := st.hostWords(io.ch, lanes(io.reg)); err != nil {
					return err
				}
				continue
			}
			in, at := st.prev[io.ch], pos[io.ch]*n
			if at >= len(in) {
				return fmt.Errorf("fastexec: queue cell%d.%s underflows (receive before the matching send)", idx, io.ch)
			}
			copy(lanes(io.reg), in[at:at+n])
			pos[io.ch]++
		}
		for pi := range w.mem {
			if m := &w.mem[pi]; m.kind == memLoad {
				copy(lanes(m.reg), mem[int(p.addr(m, s.Iter))*n:][:n])
			}
		}
		for i, at := range held[:nheld] {
			if vals := st.held[i*n:][:n]; i < nstored {
				copy(mem[int(at)*n:][:n], vals)
			} else {
				copy(lanes(mcode.Reg(at)), vals)
			}
		}
		if w.hasLit {
			for l, dst := 0, lanes(w.lit.Dst); l < n; l++ {
				dst[l] = w.lit.Value
			}
		}
		s.Advance(w.depth, p.ends[w.endLo:w.endHi])
	}
	return nil
}

// result assembles the modeled statistics and run profile.
func (p *Plan) result(st *execState) *Result {
	res := &Result{
		CellFinish: make([]int64, p.cells),
		AddOps:     p.addOps * int64(p.cells),
		MulOps:     p.mulOps * int64(p.cells),
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
			Busy:     p.ops,
			Bubble:   p.cellCycles - p.ops, // idle issue slots; the starved split needs queue timing
			SkewLead: int64(i) * p.skew,
			Drain:    last - finish,
		}
	}
	res.Obs = prof
	return res
}
