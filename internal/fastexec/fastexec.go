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
//   - Each cell runs to completion on one worker, reading its left
//     neighbour's output streams as that cell publishes them.  Data
//     flows rightward only (the compiler enforces this), so what cell i
//     reads depends on cells 0..i-1 alone, whether they run before it or
//     beside it on spare processors (ExecuteBatch); FIFO pop order is
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
// verifier's report on the load it partitions, and Compile loads the
// program, verifies the load and plans it.  What the plan takes on trust
// is what verify proves — trip counts, rightward flow, the host streams'
// lengths, every address the IU sends the one the memory field names and
// within the words the fields are bound to, every loop signal the
// sequencer's decision — so the build only partitions the load's words,
// in time and space as large as the microcode.
package fastexec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

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

// Program is sim.Config, whose program fields Compile loads; kept for
// benchmark/, see ROADMAP 1(c).
type Program = sim.Config

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

// Compile builds an execution plan: it loads the program (sim.Load),
// verifies that load (verify.Verify) and builds the plan from both
// (CompileLoaded), so the words proven are the words planned.  What the
// verifier refuses, a missing cell, IU or host program included, it refuses.
func Compile(p Program) (*Plan, error) {
	l := sim.Load(p)
	rep, err := verify.Verify(l)
	if err != nil {
		return nil, fmt.Errorf("fastexec: %w", err)
	}
	return CompileLoaded(l, rep)
}

// CompileLoaded builds the execution plan of a loaded program from its
// decoded words and its count.  rep is the report verify.Verify returned
// for the same load, the proof of what the plan takes on trust; a nil
// report builds nothing.
func CompileLoaded(l *sim.Loaded, rep *verify.Report) (*Plan, error) {
	if rep == nil {
		return nil, errors.New("fastexec: no verification report: a plan is built only for a verified program")
	}
	return build(l)
}

// build partitions the load's decoded words (partition).
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

// streamWork is the work, dynamic ops × cells × problems, below which a
// run keeps its cells on the caller's goroutine.  A helper costs a
// goroutine start and the wake-up of an idle processor, ~0.1 ms on the
// 2-vCPU reference host.  Measured there, one worker against two in
// alternating runs: below 2¹⁶ op-cells streaming read ×0.85 (polynomial
// 10×100, 1 250) to ×1.5, and lost or broke even up to 5 300; above it
// every program won, ×1.1 (a 32-wide matmul10 tile batch) to ×1.65
// (colorseg 32², 113 000).  2¹⁶, about 1 ms of work, keeps the helper's
// start under a tenth of the run and the small requests warpd serves
// most (polynomial, conv1d(9, 512), matmul up to 16: under 20 000) on
// one worker.
const streamWork = 1 << 16

// forceWorkers, when positive, fixes every run's worker count, its size
// and the budget aside (export_test.go).
var forceWorkers int

// execState is the whole-array execution state of one run, n =
// len(hostMems) problems wide, its cells on G workers.  It is pooled: a
// slice is reused when it has the room, and no buffer is shared between
// two states.
type execState struct {
	plan     *Plan
	hostMems [][]float64 // one image per problem
	ctx      context.Context
	progress obs.ProgressFunc
	polled   bool // the bodies poll: a context, a progress hook or several workers

	// The inter-cell streams on X and Y: a ring of G+1 links, cell i
	// writing ring[i mod (G+1)] and reading its left neighbour's.
	ring    [][2]link
	workers []*worker // G of them, worker 0 the caller's goroutine

	hostIn, hostOut [2]hostgen.Reader // cell 0's and the last cell's host streams: the same words for every problem

	failed    atomic.Int64 // the lowest cell that failed, cells while none has
	reporting atomic.Bool  // a worker is calling progress
}

// link is one cell's output on one channel, n values a word, read by its
// right neighbour as they are published.  Cell i+G+1 reuses cell i's
// link only after its reader, cell i+1, has retired, earlier on the same
// worker; a cell retires only after its left neighbour (work).
type link struct {
	buf  []float64    // sized for the cell's every word; written by its cell only
	cell atomic.Int64 // the cell writing it (-1: none yet this run)
	pub  atomic.Int64 // values published << 1 | 1 once the cell has retired
	bell sim.Bell     // wakes the reader
}

// claim readies l for cell idx's output.
func (l *link) claim(idx int) {
	l.pub.Store(0)
	l.cell.Store(int64(idx))
}

// publish makes the first k values of l visible to its reader, the last
// once the cell has retired, and wakes the reader if it sleeps.
func (l *link) publish(k int, retired bool) {
	pub := int64(k) << 1
	if retired {
		pub |= 1
	}
	l.pub.Store(pub)
	l.bell.Ring()
}

// published returns the values published for cell idx-1's reader, and
// whether its writer has retired; none while the writer is another cell.
func (l *link) published(idx int) ([]float64, bool) {
	if l.cell.Load() != int64(idx-1) {
		return nil, false
	}
	pub := l.pub.Load()
	return l.buf[:pub>>1], pub&1 != 0
}

// worker runs cells w, w+G, w+2G, … one after another, each to
// completion: the state one cell at a time needs.
type worker struct {
	st *execState
	w  int

	mem  []float64 // one cell's data memory over the plan's envelope, word a of problem l at mem[a·n+l], zeroed per cell
	iter []int64   // the sequencer's iteration counters, all zero between cells

	left, right *[2]link     // the running cell's input and output links
	out         [2][]float64 // its output, in right's buffers

	cell     mcode.CellRegs // the one-wide body's registers
	lanes    mcode.LaneRegs // a batched walk's, over laneVals
	laneVals []float64

	// untilPoll counts a polled run's words down to the next poll, across
	// this worker's cells: 1 at the start, so that the first word polls,
	// then ctxCheckInterval.
	untilPoll int64
	retired   atomic.Int64 // cell cycles retired, for progress
	errCell   int          // the cell of this worker that failed
}

var statePool = sync.Pool{New: func() any { return new(execState) }}

// errStopped stops a cell once a cell to its left has failed: the run
// returns that cell's error, as the sequential run would.
var errStopped = errors.New("fastexec: stopped")

// sized returns s at length n, reallocated only when it lacks the room.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset readies a pooled state for a run of p over hostMems on g workers.
func (st *execState) reset(p *Plan, hostMems [][]float64, ctl sim.Controls, g int) {
	n := len(hostMems)
	st.plan, st.hostMems, st.ctx, st.progress = p, hostMems, ctl.Ctx, ctl.Progress
	st.polled = ctl.Ctx != nil || ctl.Progress != nil || g > 1
	st.failed.Store(int64(p.cells))
	st.reporting.Store(false)
	st.workers = st.workers[:min(g, cap(st.workers))]
	for len(st.workers) < g {
		st.workers = append(st.workers, nil)
	}
	for i, w := range st.workers {
		if w == nil {
			w = &worker{st: st, w: i}
			st.workers[i] = w
		}
		w.mem, w.iter = sized(w.mem, p.code.MemWords*n), sized(w.iter, p.code.Depth)
		clear(w.iter)
		w.untilPoll = 1
		w.retired.Store(0)
	}
	for ch := range p.counts.Send {
		st.hostIn[ch].Reset(p.host.In[w2.Channel(ch)])
		st.hostOut[ch].Reset(p.host.Out[w2.Channel(ch)])
	}
	st.ring = st.ring[:0]
	if p.cells > 1 { // the one cell of an array of one talks to the host alone
		st.ring = sized(st.ring, g+1)
		for i := range st.ring {
			for ch, words := range p.counts.Send {
				l := &st.ring[i][ch]
				l.buf = sized(l.buf, int(words)*n)
				l.cell.Store(-1)
				l.bell.Init()
			}
		}
	}
}

// release drops what the pool must not keep alive: the caller's memory.
func (st *execState) release() {
	st.hostMems, st.ctx, st.progress = nil, nil, nil
	statePool.Put(st)
}

// work runs worker k's cells, stopping at its first error, which it
// returns, or once a cell to the left of its next one has failed.
func (st *execState) work(k int) error {
	p, w, g := st.plan, st.workers[k], len(st.workers)
	run := p.runCell // one problem keeps the words' one-wide body
	if len(st.hostMems) > 1 {
		run = p.runLanes
	}
	for idx := w.w; idx < p.cells && int(st.failed.Load()) > idx; idx += g {
		if len(st.ring) > 0 {
			w.left, w.right = &st.ring[(idx+len(st.ring)-1)%len(st.ring)], &st.ring[idx%len(st.ring)]
			for ch := range w.right {
				w.out[ch] = w.right[ch].buf[:0]
				w.right[ch].claim(idx)
			}
		}
		err := run(w, idx)
		if len(st.ring) > 0 {
			// The cell retires after its left neighbour: cell idx+G, next
			// on this worker, reuses the left links, whose writer may still
			// run after its last send, and a link has one waiting reader
			// at a time.
			for ch := range w.right {
				w.right[ch].publish(len(w.out[ch]), false)
			}
			for ch := 0; ch < len(w.left) && err == nil && idx > 0; ch++ {
				_, err = w.wait(idx, ch, math.MaxInt, p.counts.Cycles)
			}
			for ch := range w.right {
				w.right[ch].publish(len(w.out[ch]), true)
			}
		}
		if err == errStopped {
			return nil
		}
		if err != nil {
			w.errCell = idx
			st.fail(idx)
			return fmt.Errorf("cell %d: %w", idx, err)
		}
	}
	return nil
}

// before reports whether worker a's error comes before worker b's: the
// leftmost cell's is the sequential run's.
func (st *execState) before(a, b int) bool {
	return st.workers[a].errCell < st.workers[b].errCell
}

// fail records that cell idx failed (-1: the run, every cell stops): the
// cells right of it stop, and a sleeping reader wakes to see it.
func (st *execState) fail(idx int) {
	for f := st.failed.Load(); f > int64(idx) && !st.failed.CompareAndSwap(f, int64(idx)); f = st.failed.Load() {
	}
	for i := range st.ring {
		st.ring[i][0].bell.Ring()
		st.ring[i][1].bell.Ring()
	}
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
// cancellation, for a failed cell to the left, and reports progress: t
// is the cell cycle cell idx has reached.  It inlines into the executor
// bodies; check does not.
func (w *worker) poll(idx int, t int64) error {
	if w.untilPoll--; w.untilPoll > 0 {
		return nil
	}
	w.untilPoll = ctxCheckInterval
	return w.check(idx, t)
}

func (w *worker) check(idx int, t int64) error {
	st := w.st
	if st.ctx != nil {
		if err := st.ctx.Err(); err != nil {
			return fmt.Errorf("fastexec: run aborted: %w", err)
		}
	}
	if int(st.failed.Load()) < idx {
		return errStopped
	}
	if p := st.plan; st.progress != nil {
		// Each worker retires its cells one after another: the cell cycles
		// all workers have retired, scaled onto the modeled cycle axis, are
		// a monotone position, reported by one worker at a time.
		w.retired.Store(int64(idx/len(st.workers))*p.counts.Cycles + t)
		if st.reporting.CompareAndSwap(false, true) {
			var done int64
			for _, o := range st.workers {
				done += o.retired.Load()
			}
			st.progress(obs.ProgressUpdate{Cycles: p.Cycles() * done / (int64(p.cells) * p.counts.Cycles)})
			st.reporting.Store(false)
		}
	}
	return nil
}

// await is a receive's slow path: cell idx has consumed the n values of
// its left link's channel ch published so far.  It publishes the cell's
// own output, then waits until more are published and returns them; the
// left neighbour retired without sending them is an underflow.
func (w *worker) await(idx int, ch int, n int, t int64, out *[2][]float64) ([]float64, error) {
	for c := range out {
		w.right[c].publish(len(out[c]), false)
	}
	in, err := w.wait(idx, ch, n, t)
	if err == nil && len(in) <= n {
		err = fmt.Errorf("fastexec: queue cell%d.%s underflows (receive before the matching send)", idx, w2.Channel(ch))
	}
	return in, err
}

// wait blocks cell idx, at cell cycle t, until its left link on channel
// ch holds more than n values or its writer has retired, and returns the
// values published.  It polls as a word does and stops once a cell to the
// left has failed (sim.Bell.Wait).
func (w *worker) wait(idx int, ch int, n int, t int64) ([]float64, error) {
	l := &w.left[ch]
	var in []float64
	err := l.bell.Wait(w.st.ctx, func() (bool, error) {
		var done bool
		if in, done = l.published(idx); len(in) > n || done {
			return true, nil
		}
		if err := w.poll(idx, t); err != nil {
			return false, err
		}
		if int(w.st.failed.Load()) < idx {
			return false, errStopped
		}
		return false, nil
	})
	return in, err
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
// batch, its images half written, and is the error of the leftmost cell
// that failed.
//
// A run of enough work streams its cells on spare processors: cell i runs
// on worker i mod G of sim.Fork, whose key is the leftmost failing cell
// (before).  A cell reads its left neighbour's words as they are
// published.  Data flows only rightward and a link has room for every
// word, so a cell waits on its left neighbour alone, which has retired or
// runs on another worker: the run always progresses.  The controls mean what they mean on the simulator;
// a progress update carries the cell cycles the workers have retired,
// scaled onto the modeled cycle count.
func (p *Plan) ExecuteBatch(hostMems [][]float64, ctl sim.Controls) (*sim.Stats, error) {
	if len(hostMems) == 0 {
		return nil, fmt.Errorf("fastexec: an empty batch")
	}
	// The modeled count makes the simulator's guard decision without
	// running.
	if err := ctl.Admit(p.Cycles()); err != nil {
		return nil, fmt.Errorf("fastexec: %w", err)
	}
	if ctl.Ctx != nil {
		if err := ctl.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("fastexec: run aborted: %w", err)
		}
	}

	g, helpers := p.workers(len(hostMems))
	defer sim.Leave(helpers)
	st := statePool.Get().(*execState)
	defer st.release()
	st.reset(p, hostMems, ctl, g)
	if err := sim.Fork(st, g, (*execState).work, func(st *execState) { st.fail(-1) }, (*execState).before); err != nil {
		return nil, err
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
func (p *Plan) runCell(wk *worker, idx int) error {
	st := wk.st
	first, last := idx == 0, idx == p.cells-1
	polled := st.polled
	r := &wk.cell
	r.Reset()
	host, mem := st.hostMems[0], wk.mem
	clear(mem)
	words, ops, mems := p.words, p.ops, p.code.Mems
	writes := p.writes[:len(words)]
	// The left neighbour's words published so far and how many of each
	// channel are consumed, and this cell's own, published as they are
	// written.
	var prev [2][]float64
	if !first {
		prev[0], _ = wk.left[0].published(idx)
		prev[1], _ = wk.left[1].published(idx)
	}
	cur := wk.out
	var pos [2]int

	s := mcode.Seq{Iter: wk.iter}
	for t := int64(0); s.PC < len(words); t++ {
		w, mid := &words[s.PC], writes[s.PC]
		if polled {
			if err := wk.poll(idx, t); err != nil {
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
					if len(cur[o.X])&63 == 0 {
						wk.right[o.X].publish(len(cur[o.X]), false)
					}
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
					var err error
					if in, err = wk.await(idx, int(o.X), n, t, &cur); err != nil {
						return err
					}
					prev[o.X] = in
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
	wk.out = cur
	return nil
}

// runLanes is runCell for n problems at once: the same ops under one
// sequencer, in the same order of reads and landings within a word,
// every value n lanes wide, its writes landing through mcode.LaneRegs.
// What amortizes is the walk itself — op dispatch, address arithmetic,
// sequencing — most of what a small run costs.
func (p *Plan) runLanes(wk *worker, idx int) error {
	st := wk.st
	first, last := idx == 0, idx == p.cells-1
	polled := st.polled
	n, r, mem := len(st.hostMems), &wk.lanes, wk.mem
	wk.laneVals = sized(wk.laneVals, mcode.LaneRegWords*n)
	r.Reset(n, wk.laneVals)
	clear(mem)
	words, ops, mems := p.words, p.ops, p.code.Mems
	var prev [2][]float64
	if !first {
		prev[0], _ = wk.left[0].published(idx)
		prev[1], _ = wk.left[1].published(idx)
	}
	var pos [2]int

	s := mcode.Seq{Iter: wk.iter}
	for t := int64(0); s.PC < len(words); t++ {
		w, mid := &words[s.PC], p.writes[s.PC]
		if polled {
			if err := wk.poll(idx, t); err != nil {
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
					out := append(wk.out[o.X], v...)
					wk.out[o.X] = out
					if len(out)&63 < n { // past a multiple of 64 values
						wk.right[o.X].publish(len(out), false)
					}
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
				in, at := prev[o.X], pos[o.X]*n
				if at >= len(in) {
					var err error
					if in, err = wk.await(idx, int(o.X), at, t, &wk.out); err != nil {
						return err
					}
					prev[o.X] = in
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

// workers enters a run of n problems in the process-wide budget
// (sim.Enter) and returns its worker count, G = 1 + the helpers granted
// (at most one per further cell), and the helpers to give back.
func (p *Plan) workers(n int) (g, helpers int) {
	want := p.cells - 1
	if forceWorkers > 0 || p.counts.Ops*int64(p.cells)*int64(n) < streamWork {
		want = 0
	}
	helpers = sim.Enter(want)
	if forceWorkers > 0 {
		return min(forceWorkers, p.cells), helpers
	}
	return 1 + helpers, helpers
}
