package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/w2"
)

// ErrLivelock marks a run aborted by the MaxCycles guard.  Callers test
// for it with errors.Is.
var ErrLivelock = errors.New("livelocked")

// ctxCheckInterval is how often (in cycles) the run loop polls
// Config.Ctx for cancellation.  Polling every cycle would put an atomic
// load on the hot path; every 4096 cycles bounds the overrun after a
// deadline or disconnect to microseconds of simulation.
const ctxCheckInterval = 1 << 12

// Config assembles everything needed to run a compiled program on the
// simulated machine.
type Config struct {
	Cells int
	Cell  *mcode.CellProgram
	IU    *mcode.IUProgram
	Host  *hostgen.Program
	// Skew is the cycle delay between adjacent cells' start times.
	Skew int64
	// Lead is the number of cycles cell 0 starts after the IU
	// (the IU prologue plus one transfer cycle).
	Lead int64
	// HostMem is the host memory image: inputs pre-loaded, outputs
	// written during the run.  RunBatch takes one per problem instead.
	HostMem []float64
	// MaxCycles aborts a runaway simulation (default 1<<28).  The
	// resulting error wraps ErrLivelock.
	MaxCycles int64
	// Ctx, when non-nil, is polled every few thousand cycles; once it is
	// cancelled the run aborts with an error wrapping ctx.Err(), so
	// deadlines and client disconnects stop a simulation instead of
	// waiting out the MaxCycles guard.
	Ctx context.Context
	// Recorder receives per-cycle instrumentation events (FPU issues,
	// memory references, queue push/pop with occupancy, stall
	// attribution).  nil or obs.Nop() disables event emission; the
	// per-cycle cost is then a single cached-bool branch per hook, and
	// the aggregate Stats.Obs profile is collected either way.
	Recorder obs.Recorder
	// PCStats enables exact per-µPC cycle attribution: every executed
	// instruction counts in one busy/starved/bubble counter at its
	// static µprogram address (its index in the canonical walk order,
	// mcode.WalkInstrs').  The counters land in
	// Stats.Obs.PC.  Off by default — the hot-path cost when off is one
	// nil check per idle cycle per cell.
	PCStats bool
	// Progress, when non-nil, receives a cycles-retired update at the
	// same stride the context is polled, plus one final update when the
	// run completes.  nil keeps the hot path progress-free (one branch,
	// no allocations).
	Progress obs.ProgressFunc
}

// Stats reports the outcome of a run.
type Stats struct {
	// Backend names the execution backend that produced these stats:
	// "sim" for a cycle-accurate run, "fast" for the verified dataflow
	// executor (internal/fastexec).  sim.Run leaves it empty; the
	// driver stamps it when it selects the backend.
	Backend string
	// Decision is the backend decision audit for this run: why this
	// backend, the run's exact cycle and operation counts, and the actual
	// wall once complete.  sim.Run leaves it nil; the driver
	// stamps it beside Backend.
	Decision *obs.Decision
	Cycles   int64 // total cycles until the last cell finished
	// CellFinish is the absolute cycle each cell finished at.
	CellFinish []int64
	// MaxQueue is the peak occupancy over the data queues (X and Y),
	// derived from the per-queue high-water marks in Obs.Queues.  The
	// marks are exact (taken at push time), so MaxQueue can read
	// slightly higher than the historical end-of-cycle sample when the
	// downstream cell pops in the same cycle as the push.
	MaxQueue int
	// MaxQueueAt names the queue that reached MaxQueue, identifying
	// the channel and cell boundary (e.g. "cell1.X" is the X queue
	// into cell 1, fed by cell 0).
	MaxQueueAt string
	// Sent counts words delivered to the host per channel.
	Sent map[w2.Channel]int
	// AddOps and MulOps count FPU field issues summed over all cells;
	// with per-cell active time they give the arithmetic-unit
	// utilization the paper quotes ("all the arithmetic units are
	// fully utilized in the innermost loop", §7).
	AddOps int64
	MulOps int64
	// CellActive is the total number of cell-active cycles (sum over
	// cells of finish−start).
	CellActive int64
	// Obs is the full run profile: per-cell stall attribution and
	// per-loop-depth utilization, per-queue high-water marks and
	// occupancy histograms, host backpressure.
	Obs *obs.Profile
}

type sigItem struct {
	id   int
	more bool
}

// cell is the runtime state of one Warp cell.  The small, hot fields
// come first; the register file, queues and memory follow.
type cell struct {
	idx       int
	next      *cell // the downstream neighbour; nil for the last cell
	mcode.Seq       // word index and loop iteration counters
	idled     int64 // idle cycles of the current word's skip run so far
	start     int64
	finish    int64 // the cycle the last instruction retired on

	// The idle split, the one accounting the cycle loop does (integer
	// increments only): what a cell issues is the program's, counted
	// when the run ends (issueCounts).
	starved, bubble int64
	depth           []obs.DepthProfile
	// sampled counts the cycles sampleQueues ran on this cell.
	sampled int64
	// pcs holds the exact per-µPC counters when Config.PCStats is set;
	// nil otherwise (the idle path tests the pointer once).
	pcs *obs.PCProfile

	regs  mcode.CellRegs    // the register file and the writes in flight
	lanes mcode.LaneRegs    // the same, lane-wide, in a batched walk
	in    [2]queue[float64] // data queues, indexed by w2.Channel
	adr   queue[int64]
	sig   queue[sigItem]
	// mem is the cell memory, or in a batched walk its envelope,
	// lane-minor: lane l's envelope word a at mem[a·n+l].
	mem []float64
}

// machine is the full simulated Warp system.
type machine struct {
	cfg   Config
	code  mcode.Decoded // the decoded cell program every cell executes
	cells []cell
	// times is scratch for issueCounts: how often a cell runs each word.
	// finishes is Stats.CellFinish, from the same arena.
	times, finishes []int64

	// A batched walk's host images, one per lane (nil alone: the run's
	// image is cfg.HostMem), and where a host input word's lanes gather.
	lanes  [][]float64
	gather []float64

	iuCode mcode.IUCode
	iu     mcode.Seq
	iuRegs mcode.IURegs
	iuOut  mcode.IUOutput // what the IU emitted this cycle
	tblPos int            // the IU's table reads so far

	// The host streams, indexed by w2.Channel: the input words not yet
	// fed and the output words collected so far (the readers are at the
	// end of the struct).
	hostInLeft [2]int64
	hostSent   [2]int
	// hostStall counts the cycles a full queue into cell 0 blocked the
	// host's input stream.
	hostStall [2]int64

	now int64

	// rec receives instrumentation events; trace caches
	// obs.Enabled(rec) so every hook on the cycle loop is one branch
	// when tracing is off.
	rec   obs.Recorder
	trace bool

	// The host streams' readers.  Each holds a block of words in place,
	// kilobytes of it: last, so that the fields above stay together.
	hostIn, hostOut [2]hostgen.Reader
}

// Run executes the configuration to completion and returns statistics.
// Any violation of the machine's static contracts — queue underflow or
// overflow, a loop signal that contradicts the sequencer, a host stream
// overrun or left unfinished, words left in a queue — is an error.
func Run(cfg Config) (*Stats, error) { return run(cfg, nil) }

// run is Run over the lanes' host images in one walk, or over
// cfg.HostMem alone when lanes is nil.
func run(cfg Config, lanes [][]float64) (*Stats, error) {
	if cfg.Cells < 1 {
		return nil, fmt.Errorf("sim: need at least one cell")
	}
	if cfg.Skew < 0 {
		return nil, fmt.Errorf("sim: negative skew %d", cfg.Skew)
	}
	cfg.MaxCycles = cmp.Or(cfg.MaxCycles, 1<<28)
	m, err := newMachine(cfg, lanes)
	if err != nil {
		return nil, err
	}
	if m.trace {
		m.rec.RunStart(cfg.Cells, cfg.Skew, cfg.Lead)
	}

	// Cells start and (running one program without ever stalling)
	// finish in index order, so the live ones are the window [lo, hi).
	for lo, hi := 0, 0; lo < cfg.Cells; m.now++ {
		if m.now > cfg.MaxCycles {
			return nil, fmt.Errorf("sim: exceeded %d cycles; the machine is %w", cfg.MaxCycles, ErrLivelock)
		}
		if m.now%ctxCheckInterval == 0 {
			if cfg.Ctx != nil {
				if err := cfg.Ctx.Err(); err != nil {
					return nil, fmt.Errorf("sim: run aborted at cycle %d: %w", m.now, err)
				}
			}
			if cfg.Progress != nil && m.now > 0 {
				cfg.Progress(obs.ProgressUpdate{Cycles: m.now})
			}
		}
		for hi < cfg.Cells && m.cells[hi].start <= m.now {
			hi++
		}
		if err := m.cycle(lo, hi); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", m.now, err)
		}
		for lo < hi && m.cells[lo].PC >= len(m.code.Words) {
			lo++
		}
	}
	if err := m.checkBalance(); err != nil {
		return nil, err
	}
	if cfg.Progress != nil {
		cfg.Progress(obs.ProgressUpdate{Cycles: m.now, Done: true})
	}
	if m.trace {
		m.rec.RunEnd(m.now)
	}
	return m.stats(), nil
}

// newMachine decodes the microprograms and allocates all run state: a handful of allocations sized by the
// program, the cell count and the lanes, none afterwards.
func newMachine(cfg Config, lanes [][]float64) (*machine, error) {
	code, err := mcode.Decode(cfg.Cell)
	if err != nil {
		return nil, fmt.Errorf("sim: cell %w", err)
	}
	n, memWords := 1, mcode.MemWords
	if lanes != nil {
		if code.Unbound != nil {
			return nil, fmt.Errorf("sim: a batched walk needs the memory envelope, but address %w", code.Unbound)
		}
		n, memWords = len(lanes), code.MemWords
	}
	iuCode, err := mcode.DecodeIU(cfg.IU)
	if err != nil {
		return nil, fmt.Errorf("sim: IU %w", err)
	}
	// A word covers its idle µPCs and its issuing one, back to back, so
	// the last word ends the program's µPCs.
	depth, pcs := code.Depth, 0
	if k := len(code.Words); k > 0 {
		pcs = int(code.Words[k-1].PC) + int(code.Words[k-1].Skip) + 1
	}
	rec := cmp.Or(cfg.Recorder, obs.Nop())
	m := &machine{
		cfg:    cfg,
		code:   *code,
		cells:  make([]cell, cfg.Cells),
		lanes:  lanes,
		iuCode: iuCode,
		rec:    rec,
		trace:  obs.Enabled(rec),
	}
	for ch := range m.hostIn {
		in := cfg.Host.In[w2.Channel(ch)]
		m.hostIn[ch], m.hostInLeft[ch] = hostgen.NewReader(in), in.Words()
		m.hostOut[ch] = hostgen.NewReader(cfg.Host.Out[w2.Channel(ch)])
	}

	// One arena holds every int64 counter: the IU's loop iterations, the
	// word counts, the cells' finish cycles, and per cell its loop
	// iterations, three occupancy histograms, three per-µPC rows when
	// profiling.
	const histLen = mcode.QueueDepth + 1
	perCell := depth + int(obs.NumQueues)*histLen
	if cfg.PCStats {
		perCell += 3 * pcs
	}
	arena := make([]int64, iuCode.Depth+len(code.Words)+cfg.Cells+cfg.Cells*perCell)
	take := func(n int) []int64 {
		out := arena[:n:n]
		arena = arena[n:]
		return out
	}
	m.iu.Iter, m.times, m.finishes = take(iuCode.Depth), take(len(code.Words)), take(cfg.Cells)
	rows := max(4, depth+1) // the depth profile has always had at least four
	depths := make([]obs.DepthProfile, cfg.Cells*rows)
	// A second arena holds every value: each cell's memory, and in a
	// batched walk its registers, writes in flight and X and Y queue words.
	cellVals := memWords * n
	if lanes != nil {
		cellVals += (mcode.LaneRegWords + 2*mcode.QueueDepth) * n
	}
	vals := make([]float64, cfg.Cells*cellVals+n)
	takeVals := func(k int) []float64 {
		out := vals[:k:k]
		vals = vals[k:]
		return out
	}
	m.gather = takeVals(n)
	for i := range m.cells {
		c := &m.cells[i]
		c.idx = i
		if i+1 < cfg.Cells {
			c.next = &m.cells[i+1]
		}
		c.start = cfg.Lead + int64(i)*cfg.Skew
		c.regs.Reset()
		c.mem = takeVals(memWords * n)
		if lanes != nil {
			c.lanes.Reset(n, takeVals(mcode.LaneRegWords*n))
			c.in[w2.ChanX].vals = takeVals(mcode.QueueDepth * n)
			c.in[w2.ChanY].vals = takeVals(mcode.QueueDepth * n)
		}
		c.Iter = take(depth)
		c.depth, depths = depths[:rows:rows], depths[rows:]
		c.in[w2.ChanX].init(i, obs.QueueX, take(histLen))
		c.in[w2.ChanY].init(i, obs.QueueY, take(histLen))
		c.adr.init(i, obs.QueueAdr, take(histLen))
		c.sig.init(i, obs.NumQueues, nil)
		if cfg.PCStats {
			c.pcs = &obs.PCProfile{Busy: take(pcs), Starved: take(pcs), Bubble: take(pcs)}
		}
	}
	return m, nil
}

// checkBalance runs once the last cell has finished: every stream the
// host program describes must have been delivered in full and nothing
// may be left in flight.  A program that sends too few words, leaves
// host input undelivered or strands words in a queue would otherwise
// return stale output as success.
func (m *machine) checkBalance() error {
	for ch := range m.hostOut {
		if got, want := int64(m.hostSent[ch]), m.cfg.Host.Out[w2.Channel(ch)].Words(); got != want {
			return fmt.Errorf("sim: the array finished after sending %d of the %d words the host program expects on %s",
				got, want, w2.Channel(ch))
		}
		if left := m.hostInLeft[ch]; left != 0 {
			return fmt.Errorf("sim: the array finished with %d of the host's %d input words on %s undelivered",
				left, m.cfg.Host.In[w2.Channel(ch)].Words(), w2.Channel(ch))
		}
	}
	residue := func(name string, n int) error {
		return fmt.Errorf("sim: the array finished with %d words left in queue %s", n, name)
	}
	for i := range m.cells {
		c := &m.cells[i]
		switch {
		case c.in[w2.ChanX].n > 0:
			return residue(c.in[w2.ChanX].name(), c.in[w2.ChanX].n)
		case c.in[w2.ChanY].n > 0:
			return residue(c.in[w2.ChanY].name(), c.in[w2.ChanY].n)
		case c.adr.n > 0:
			return residue(c.adr.name(), c.adr.n)
		case c.sig.n > 0:
			return residue(c.sig.name(), c.sig.n)
		}
	}
	return nil
}

// stats aggregates the per-cell and per-queue accounting of a finished
// run into the run profile and the compatibility counters.
func (m *machine) stats() *Stats {
	stats := &Stats{
		Cycles:     m.now,
		CellFinish: m.finishes,
		Sent:       map[w2.Channel]int{},
	}
	for ch, n := range m.hostSent {
		if n > 0 {
			stats.Sent[w2.Channel(ch)] = n
		}
	}
	prof := &obs.Profile{
		Cells:      m.cfg.Cells,
		Cycles:     stats.Cycles,
		Skew:       m.cfg.Skew,
		Lead:       m.cfg.Lead,
		Cell:       make([]obs.CellProfile, m.cfg.Cells),
		Queues:     make([]obs.QueueProfile, 0, m.cfg.Cells*int(obs.NumQueues)),
		HostStallX: m.hostStall[w2.ChanX],
		HostStallY: m.hostStall[w2.ChanY],
	}
	last := stats.Cycles - 1 // cycle the last cell retired on
	issued := m.issueCounts(m.times)
	for i := range m.cells {
		c := &m.cells[i]
		stats.CellFinish[i] = c.finish
		stats.CellActive += c.finish - c.start
		stats.AddOps += issued.AddOps
		stats.MulOps += issued.MulOps
		cp := issued
		cp.Start, cp.Finish = c.start, c.finish
		cp.Starved, cp.Bubble = c.starved, c.bubble
		cp.SkewLead, cp.Drain = c.start-m.cells[0].start, last-c.finish
		cp.Depth = c.depth
		prof.Cell[i] = cp
		// The cycles this cell's queues went unsampled lie before its
		// upstream neighbour started or after it finished itself;
		// either way they were empty (checkBalance passed).
		idle := stats.Cycles - c.sampled
		c.in[w2.ChanX].hist[0] += idle
		c.in[w2.ChanY].hist[0] += idle
		c.adr.hist[0] += idle
		prof.Queues = append(prof.Queues, c.in[w2.ChanX].profile(), c.in[w2.ChanY].profile(), c.adr.profile())
		if c.pcs != nil {
			prof.PC = append(prof.PC, *c.pcs)
		}
	}
	stats.Obs = prof
	stats.MaxQueue, stats.MaxQueueAt = prof.MaxQueue()
	return stats
}

// issueCounts fills in what the cells of a finished run issued, which the
// program alone decides: every cell runs every word as often as the
// trip counts of the loops around it multiply to (a trip count below one
// counting once, as the sequencer's do-while loops run it), so each
// cell's busy cycles, FPU and memory operations, depth rows and per-µPC
// busy counters are the same sums over the words.  times is scratch
// space, one count per word.  The returned profile holds the per-cell
// totals; the idle split stays the cycle loop's.
func (m *machine) issueCounts(times []int64) obs.CellProfile {
	for i := range times {
		times[i] = 1
	}
	for j := range m.code.Words {
		w := &m.code.Words[j]
		for _, e := range m.code.Ends[w.EndLo:w.EndHi] {
			trips := max(e.Trips, 1)
			for k := e.Head; k <= j; k++ {
				times[k] *= trips
			}
		}
	}
	var tot obs.CellProfile
	c0 := &m.cells[0]
	for i := range m.code.Words {
		w, k := &m.code.Words[i], times[i]
		dp := &c0.depth[w.Depth]
		dp.Cycles += k * (int64(w.Skip) + 1)
		if w.Nop {
			continue
		}
		tot.Busy += k
		if c0.pcs != nil {
			c0.pcs.Busy[int(w.PC)+int(w.Skip)] = k
		}
		if w.HasAdd {
			tot.AddOps += k
			dp.AddOps += k
		}
		if w.HasMul {
			tot.MulOps += k
			dp.MulOps += k
		}
		if w.HasMov {
			tot.MovOps += k
		}
		for _, o := range m.code.Ops[w.Lo:w.Hi] {
			switch o.Kind {
			case mcode.OpLoad:
				tot.Loads += k
			case mcode.OpStore:
				tot.Stores += k
			}
		}
	}
	for i := 1; i < len(m.cells); i++ {
		c := &m.cells[i]
		copy(c.depth, c0.depth)
		if c.pcs != nil {
			copy(c.pcs.Busy, c0.pcs.Busy)
		}
	}
	return tot
}

// cycle executes one global clock tick: the IU, the host, then every
// live cell left to right, so that a word pushed upstream is poppable
// downstream within the same cycle.  Cells below lo have finished and
// cells from hi up have not started; they only report their idle cycle
// to an attached recorder.
func (m *machine) cycle(lo, hi int) error {
	if err := m.stepIU(); err != nil {
		return err
	}
	if err := m.stepHostIn(); err != nil {
		return err
	}
	if m.trace {
		for i := 0; i < lo; i++ {
			m.rec.Stall(m.now, i, obs.StallDrain)
		}
	}
	for i := lo; i < hi; i++ {
		c := &m.cells[i]
		if err := m.stepCell(c); err != nil {
			return err
		}
		// Nothing upstream or in the cell itself touches its input
		// queues again this cycle.
		c.sampleQueues()
	}
	if hi < len(m.cells) {
		// The next cell to start: its upstream neighbour (the IU and the
		// host, for cell 0) is already filling its queues.  No queue
		// further down can have changed yet.
		m.cells[hi].sampleQueues()
	}
	if m.trace {
		for i := hi; i < len(m.cells); i++ {
			m.rec.Stall(m.now, i, obs.StallSkewLead)
		}
	}
	return nil
}

// sampleQueues adds the end-of-cycle occupancy of the cell's tracked
// queues to their histograms (X, Y and Adr; the Sig queue is control
// plumbing).  The high-water marks are maintained exactly at push time
// in queue.push.
func (c *cell) sampleQueues() {
	c.sampled++
	c.in[w2.ChanX].hist[c.in[w2.ChanX].n]++
	c.in[w2.ChanY].hist[c.in[w2.ChanY].n]++
	c.adr.hist[c.adr.n]++
}

// recPush and recPop emit queue events when tracing is enabled; they
// are the only place the occupancy leaves the queue on the hot path.
func recPush[T any](m *machine, q *queue[T]) {
	if m.trace && q.kind < obs.NumQueues {
		m.rec.QueuePush(m.now, q.cell, q.kind, q.n)
	}
}

func recPop[T any](m *machine, q *queue[T]) {
	if m.trace && q.kind < obs.NumQueues {
		m.rec.QueuePop(m.now, q.cell, q.kind, q.n)
	}
}

// stepIU executes one IU microinstruction (mcode.IURegs.Step) and
// pushes what it emits into cell 0's Adr and Sig queues.
func (m *machine) stepIU() error {
	if m.iu.PC >= len(m.iuCode.Words) {
		return nil
	}
	if m.iuCode.Words[m.iu.PC].Run > 0 { // an idle word: nothing to emit, no loop to close
		m.iu.PC++
		return nil
	}
	out := &m.iuOut
	m.iuRegs.Step(&m.iuCode, &m.iu, m.cfg.IU.Table, &m.tblPos, out)
	if out.Over >= 0 {
		return fmt.Errorf("sim: IU table read past its %d entries", len(m.cfg.IU.Table))
	}
	cell0 := &m.cells[0]
	for _, v := range out.Adr[:out.NAdr] {
		if err := cell0.adr.push(v); err != nil {
			return err
		}
		recPush(m, &cell0.adr)
	}
	if out.Sig {
		return cell0.sig.push(sigItem{id: out.SigID, more: out.More})
	}
	return nil
}

// stepHostIn feeds at most one word per channel per cycle into cell 0.
func (m *machine) stepHostIn() error {
	for ch := range m.hostIn {
		if m.hostInLeft[ch] == 0 {
			continue
		}
		q := &m.cells[0].in[ch]
		if q.n >= mcode.QueueDepth {
			// Backpressure: the host waits.  Attribute the queue-full
			// stall to the consuming cell 0.
			m.hostStall[ch]++
			if m.trace {
				m.rec.Stall(m.now, 0, obs.StallQueueFull)
			}
			continue
		}
		w := m.hostIn[ch].Next()
		if m.lanes != nil {
			if err := m.hostInLanes(q, w); err != nil {
				return err
			}
			recPush(m, q)
			m.hostInLeft[ch]--
			continue
		}
		v := w.Value
		if !w.Literal {
			if w.Index < 0 || int(w.Index) >= len(m.cfg.HostMem) {
				return fmt.Errorf("sim: host input index %d outside host memory of %d words", w.Index, len(m.cfg.HostMem))
			}
			v = m.cfg.HostMem[w.Index]
		}
		if err := q.push(v); err != nil {
			return err
		}
		recPush(m, q)
		m.hostInLeft[ch]--
	}
	return nil
}

// hostCollect receives one word from the last cell on a channel.
func (m *machine) hostCollect(ch w2.Channel, v float64) error {
	w := m.hostOut[ch].Next()
	if w == nil {
		return m.hostOverrun(ch)
	}
	if idx := int(w.Index); idx != hostgen.Discard {
		if idx < 0 || idx >= len(m.cfg.HostMem) {
			return fmt.Errorf("sim: host output index %d outside host memory of %d words", idx, len(m.cfg.HostMem))
		}
		m.cfg.HostMem[idx] = v
	}
	m.hostSent[ch]++
	return nil
}

// hostOverrun is the error of a send past the end of the host's output
// stream on ch.
func (m *machine) hostOverrun(ch w2.Channel) error {
	return fmt.Errorf("sim: the last cell sent more words on %s than the host program expects (%d)", ch, m.hostSent[ch])
}
