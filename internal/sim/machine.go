package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/w2"
)

// ErrLivelock marks a run aborted by the MaxCycles guard.  Callers test
// for it with errors.Is.
var ErrLivelock = errors.New("livelocked")

// ctxCheckInterval is how often (in cycles) the run loop polls
// Controls.Ctx for cancellation.  Polling every cycle would put an atomic
// load on the hot path; every 4096 cycles bounds the overrun after a
// deadline or disconnect to microseconds of simulation.
const ctxCheckInterval = 1 << 12

// Controls are the run controls.  W2 has no data-dependent control
// (§5.1), so a run is one fixed schedule, and the controls mean the same
// on the simulator and on the fast executor (fastexec.Plan.ExecuteBatch).
// The zero value runs to completion under the default guard.
type Controls struct {
	// Ctx, when non-nil, is polled up front and then at a bounded stride
	// (every few thousand cycles or operations); once it is cancelled the
	// run aborts with an error wrapping ctx.Err().
	Ctx context.Context
	// MaxCycles is the livelock guard (see Limit): a run whose clock
	// passes it aborts with an error wrapping ErrLivelock.
	MaxCycles int64
	// Progress, when non-nil, receives a cycles-retired update at the
	// polling stride and one final Done update.  nil keeps the hot path
	// progress-free (one branch, no allocations).
	Progress obs.ProgressFunc
}

// Limit is the livelock guard in cycles: MaxCycles, or the default of
// 2^28 cycles when it is 0.
func (c Controls) Limit() int64 { return cmp.Or(c.MaxCycles, 1<<28) }

// Admit refuses, before it starts, a run of the given modeled cycles
// that the guard would abort: the simulator aborts when its clock passes
// the guard before the last cell retires, i.e. whenever the run needs
// more than Limit()+1 cycles.  The error wraps ErrLivelock.
func (c Controls) Admit(cycles int64) error {
	if cycles-1 <= c.Limit() { // not cycles <= Limit()+1, which wraps at the largest guard
		return nil
	}
	return fmt.Errorf("modeled run needs %d cycles, exceeding %d; the machine is %w", cycles, c.Limit(), ErrLivelock)
}

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
	// written during the run.  Loaded.RunBatch takes one per problem
	// instead.
	HostMem []float64
	Controls
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
	// CellActive is the total number of cell-active cycles: the sum over
	// cells of obs.CellProfile.Active, the denominator Profile.Summarize
	// divides by.
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
	next      *cell // the downstream neighbour; nil for the last cell of a group
	mcode.Seq       // word index and loop iteration counters
	idled     int64 // idle cycles of the current word's skip run so far
	start     int64
	finish    int64 // the cycle the last instruction retired on

	// The idle split, the one accounting the cycle loop does (integer
	// increments only): what a cell issues is the program's (Closed).
	starved, bubble int64
	// sampled counts the cycles sampleQueues ran on this cell.
	sampled int64
	// pcs holds the exact per-µPC idle split when Config.PCStats is set;
	// nil otherwise (the idle path tests the pointer once).
	pcs *obs.PCProfile
	// out carries what the last cell of a group of several pushes to the
	// next group's first cell (group.cross); nil otherwise.
	out *boundary

	regs  mcode.CellRegs    // the register file and the writes in flight
	lanes mcode.LaneRegs    // the same, lane-wide, in a batched walk
	in    [2]queue[float64] // data queues, indexed by w2.Channel
	adr   queue[int64]
	sig   queue[sigItem]
	// mem is the cell memory, or in a batched walk its envelope,
	// lane-minor: lane l's envelope word a at mem[a·n+l].
	mem []float64
}

// machine is the full simulated Warp system.  What every group reads
// comes first; the state group 0 writes, the IU's and the host input's,
// and the state the last group writes, the host output's, follow, apart:
// the two write theirs a word at a time.
type machine struct {
	cfg  Config
	load *Loaded
	code mcode.Decoded // the decoded cell program every cell executes
	// A batched walk's host images, one per lane (nil alone: the run's
	// image is cfg.HostMem).
	lanes  [][]float64
	iuCode mcode.IUCode

	// rec receives instrumentation events; trace caches
	// obs.Enabled(rec) so every hook on the cycle loop is one branch
	// when tracing is off.
	rec   obs.Recorder
	trace bool

	// The run's groups of cells (group.go), left to right: solo for a run
	// of one, and the earliest cycle a group of several recorded an error
	// at.
	groupList []group
	stopAt    atomic.Int64
	solo      [1]group

	// Group 0's: the IU, where a host input word's lanes gather, and the
	// host's input streams, indexed by w2.Channel — the words not yet fed
	// and the cycles a full queue into cell 0 blocked the stream.
	gather     []float64
	iu         mcode.Seq
	iuRegs     mcode.IURegs
	iuOut      mcode.IUOutput // what the IU emitted this cycle
	tblPos     int            // the IU's table reads so far
	hostInLeft [2]int64
	hostStall  [2]int64
	// The host streams' readers.  Each holds a block of words in place,
	// kilobytes of it: last, so that the fields above stay together.
	hostIn [2]hostgen.Reader
	_      [64]byte

	// The last group's: the host output's words collected so far and
	// its readers.
	hostSent [2]int
	hostOut  [2]hostgen.Reader
}

// Run executes the configuration to completion and returns statistics.
// Any violation of the machine's static contracts — queue underflow or
// overflow, a loop signal that contradicts the sequencer, a host stream
// overrun or left unfinished, words left in a queue — is an error.  It
// loads the program (Load), then runs it.
func Run(cfg Config) (*Stats, error) { return run(Load(cfg), cfg, nil) }

// check refuses a machine the simulator cannot build, before a cell
// steps a word of its program.
func (cfg *Config) check() error {
	if cfg.Cells < 1 {
		return errors.New("sim: need at least one cell")
	}
	if cfg.Skew < 0 {
		return fmt.Errorf("sim: negative skew %d", cfg.Skew)
	}
	return nil
}

// run is Run of the loaded program l over the lanes' host images in one
// walk, or over cfg.HostMem alone when lanes is nil.
func run(l *Loaded, cfg Config, lanes [][]float64) (*Stats, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	groups, helpers := split(l, cfg, max(len(lanes), 1))
	defer Leave(helpers)
	m, err := newMachine(l, cfg, lanes, groups)
	if err != nil {
		return nil, err
	}
	if m.trace {
		m.rec.RunStart(cfg.Cells, cfg.Skew, cfg.Lead)
	}
	end, err := m.runGroups()
	if err != nil {
		return nil, err
	}
	if err := m.checkBalance(); err != nil {
		return nil, err
	}
	if cfg.Progress != nil {
		cfg.Progress(obs.ProgressUpdate{Cycles: end, Done: true})
	}
	if m.trace {
		m.rec.RunEnd(end)
	}
	return m.stats(end), nil
}

// newMachine allocates all run state of the loaded program, its cells in
// the given number of groups: a handful of allocations sized by the
// program, the cell count, the groups and the lanes, none afterwards.
func newMachine(l *Loaded, cfg Config, lanes [][]float64, groups int) (*machine, error) {
	code, err := l.Code()
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
	iuCode, err := l.IU()
	if err != nil {
		return nil, fmt.Errorf("sim: IU %w", err)
	}
	pcs := numPCs(code.Words)
	rec := cmp.Or(cfg.Recorder, obs.Nop())
	m := &machine{
		cfg:    cfg,
		load:   l,
		code:   *code,
		lanes:  lanes,
		iuCode: *iuCode,
		rec:    rec,
		trace:  obs.Enabled(rec),
	}
	for ch := range m.hostIn {
		in := cfg.Host.In[w2.Channel(ch)]
		m.hostIn[ch].Reset(in)
		m.hostOut[ch].Reset(cfg.Host.Out[w2.Channel(ch)])
		m.hostInLeft[ch] = in.Words()
	}

	// Per group, one arena holds every int64 counter: per cell its loop
	// iterations, three occupancy histograms, two per-µPC idle rows when
	// profiling, and in group 0 the IU's loop iterations; a second holds
	// every value: each cell's memory, and in a batched walk its
	// registers, writes in flight and X and Y queue words, and in group 0
	// where a host input word's lanes gather.
	const histLen = mcode.QueueDepth + 1
	perCell := code.Depth + int(obs.NumQueues)*histLen
	if cfg.PCStats {
		perCell += 2 * pcs
	}
	cellVals := memWords * n
	if lanes != nil {
		cellVals += (mcode.LaneRegWords + 2*mcode.QueueDepth) * n
	}
	m.groupList = m.solo[:]
	if groups > 1 {
		m.groupList = make([]group, groups)
	}
	for k := range m.groupList {
		g := &m.groupList[k]
		first := k * cfg.Cells / groups
		g.machine, g.k, g.first, g.last, g.peers = m, k, first, -1, groups > 1
		// Each group's state is allocations of its own: on the 2-vCPU
		// reference host a group whose cells and counters shared arrays
		// with the group to its left ran up to four times slower beside
		// it, and at full speed in arrays of its own.
		g.cells = make([]cell, (k+1)*cfg.Cells/groups-first)
		iuIters, gather := 0, 0
		if k == 0 {
			iuIters, gather = iuCode.Depth, n
		}
		arena := make([]int64, iuIters+len(g.cells)*perCell)
		take := func(words int) []int64 {
			out := arena[:words:words]
			arena = arena[words:]
			return out
		}
		vals := make([]float64, gather+len(g.cells)*cellVals)
		takeVals := func(words int) []float64 {
			out := vals[:words:words]
			vals = vals[words:]
			return out
		}
		if k == 0 {
			m.iu.Iter, m.gather = take(iuIters), takeVals(gather)
		}
		for j := range g.cells {
			c, i := &g.cells[j], first+j
			c.idx = i
			if j+1 < len(g.cells) {
				c.next = &g.cells[j+1]
			}
			c.start = cfg.Lead + int64(i)*cfg.Skew
			c.regs.Reset()
			c.mem = takeVals(memWords * n)
			if lanes != nil {
				c.lanes.Reset(n, takeVals(mcode.LaneRegWords*n))
				c.in[w2.ChanX].vals = takeVals(mcode.QueueDepth * n)
				c.in[w2.ChanY].vals = takeVals(mcode.QueueDepth * n)
			}
			c.Iter = take(code.Depth)
			c.in[w2.ChanX].init(i, obs.QueueX, take(histLen))
			c.in[w2.ChanY].init(i, obs.QueueY, take(histLen))
			c.adr.init(i, obs.QueueAdr, take(histLen))
			c.sig.init(i, obs.NumQueues, nil)
			if cfg.PCStats {
				c.pcs = &obs.PCProfile{Starved: take(pcs), Bubble: take(pcs)}
			}
		}
	}
	return m, nil
}

// cell returns cell i of the array.
func (m *machine) cell(i int) *cell {
	for k := len(m.groupList) - 1; ; k-- {
		if g := &m.groupList[k]; i >= g.first {
			return &g.cells[i-g.first]
		}
	}
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
	for i := range m.cfg.Cells {
		c := m.cell(i)
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

// stats is the run's record: the program's closed form (Loaded.Closed) with
// what the cycle loop measured laid over it — the machine time, the
// cycles before end, each cell's finish and idle split, the queues and the
// host's backpressure.
func (m *machine) stats(end int64) *Stats {
	stats := m.load.Closed(m.cfg.PCStats)
	prof := stats.Obs
	stats.Cycles, prof.Cycles = end, end
	prof.Queues = make([]obs.QueueProfile, 0, m.cfg.Cells*int(obs.NumQueues))
	prof.HostStallX, prof.HostStallY = m.hostStall[w2.ChanX], m.hostStall[w2.ChanY]
	stats.CellActive = 0
	last := stats.Cycles - 1 // cycle the last cell retired on
	for i := range m.cfg.Cells {
		c, cp := m.cell(i), &prof.Cell[i]
		stats.CellFinish[i], cp.Finish = c.finish, c.finish
		cp.Starved, cp.Bubble, cp.Drain = c.starved, c.bubble, last-c.finish
		stats.CellActive += cp.Active()
		// The cycles this cell's queues went unsampled lie before its
		// upstream neighbour started or after it finished itself;
		// either way they were empty (checkBalance passed).
		idle := stats.Cycles - c.sampled
		c.in[w2.ChanX].hist[0] += idle
		c.in[w2.ChanY].hist[0] += idle
		c.adr.hist[0] += idle
		prof.Queues = append(prof.Queues, c.in[w2.ChanX].profile(), c.in[w2.ChanY].profile(), c.adr.profile())
		if c.pcs != nil {
			prof.PC[i].Starved, prof.PC[i].Bubble = c.pcs.Starved, c.pcs.Bubble
		}
	}
	stats.MaxQueue, stats.MaxQueueAt = prof.MaxQueue()
	return stats
}

// cycle executes one tick of the group's clock: the IU and the host in
// group 0, then every live cell of the group left to right, so that a
// word pushed upstream is poppable downstream within the same cycle.
// Cells below lo have finished and cells from hi up have not started;
// they only report their idle cycle to an attached recorder.
func (g *group) cycle() error {
	if g.k == 0 {
		if err := g.stepIU(); err != nil {
			return err
		}
		if err := g.stepHostIn(); err != nil {
			return err
		}
	}
	if g.trace {
		for i := range g.lo {
			g.rec.Stall(g.now, g.first+i, obs.StallDrain)
		}
	}
	for i := g.lo; i < g.hi; i++ {
		c := &g.cells[i]
		if err := g.stepCell(c); err != nil {
			return err
		}
		// Nothing upstream or in the cell itself touches its input
		// queues again this cycle.
		c.sampleQueues()
	}
	if g.hi < len(g.cells) {
		// The next cell to start: its upstream neighbour (the IU and the
		// host, for cell 0) is already filling its queues.  No queue
		// further down can have changed yet.
		g.cells[g.hi].sampleQueues()
	}
	if g.trace {
		for i := g.hi; i < len(g.cells); i++ {
			g.rec.Stall(g.now, g.first+i, obs.StallSkewLead)
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
func recPush[T any](g *group, q *queue[T]) {
	if g.trace && q.kind < obs.NumQueues {
		g.rec.QueuePush(g.now, q.cell, q.kind, q.n)
	}
}

func recPop[T any](g *group, q *queue[T]) {
	if g.trace && q.kind < obs.NumQueues {
		g.rec.QueuePop(g.now, q.cell, q.kind, q.n)
	}
}

// stepIU executes one IU microinstruction (mcode.IURegs.Step) and
// pushes what it emits into cell 0's Adr and Sig queues.
func (g *group) stepIU() error {
	if g.iu.PC >= len(g.iuCode.Words) {
		return nil
	}
	if g.iuCode.Words[g.iu.PC].Run > 0 { // an idle word: nothing to emit, no loop to close
		g.iu.PC++
		return nil
	}
	out := &g.iuOut
	g.iuRegs.Step(&g.iuCode, &g.iu, g.cfg.IU.Table, &g.tblPos, out)
	if out.Over >= 0 {
		return fmt.Errorf("sim: IU table read past its %d entries", len(g.cfg.IU.Table))
	}
	cell0 := &g.cells[0]
	for _, v := range out.Adr[:out.NAdr] {
		if err := cell0.adr.push(v); err != nil {
			return err
		}
		recPush(g, &cell0.adr)
	}
	if out.Sig {
		return cell0.sig.push(sigItem{id: out.SigID, more: out.More})
	}
	return nil
}

// stepHostIn feeds at most one word per channel per cycle into cell 0.
func (g *group) stepHostIn() error {
	for ch := range g.hostIn {
		if g.hostInLeft[ch] == 0 {
			continue
		}
		q := &g.cells[0].in[ch]
		if q.n >= mcode.QueueDepth {
			// Backpressure: the host waits.  Attribute the queue-full
			// stall to the consuming cell 0.
			g.hostStall[ch]++
			if g.trace {
				g.rec.Stall(g.now, 0, obs.StallQueueFull)
			}
			continue
		}
		w := g.hostIn[ch].Next()
		if g.lanes != nil {
			if err := g.hostInLanes(q, w); err != nil {
				return err
			}
			recPush(g, q)
			g.hostInLeft[ch]--
			continue
		}
		v := w.Value
		if !w.Literal {
			if w.Index < 0 || int(w.Index) >= len(g.cfg.HostMem) {
				return fmt.Errorf("sim: host input index %d outside host memory of %d words", w.Index, len(g.cfg.HostMem))
			}
			v = g.cfg.HostMem[w.Index]
		}
		if err := q.push(v); err != nil {
			return err
		}
		recPush(g, q)
		g.hostInLeft[ch]--
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
