package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"warp/internal/mcode"
	"warp/internal/obs"
)

// streamWork is the work, cycles × cells × lanes, below which a run steps
// its cells on the caller's goroutine alone.  A cell cycle costs 60–120
// ns with the cycle loop's own work, and a helper a goroutine start, the
// wake-up of an idle processor and the groups' meetings.  Measured on the
// 2-vCPU reference host, one group against two in alternating runs:
// polynomial 10×100 (1 250 cell cycles) ×0.86, conv1d(9, 512) (4 833)
// ×0.91, matmul10 (5 820) ×1.04, conv1d(9, 1024) (9 441) ×1.06, conv1d(9,
// 2048) (18 657) ×1.29, matmul16 (20 704) ×1.35, colorseg 32² and matmul32
// (113 390 and 124 480) ×1.36.  2¹⁴, 1–2 ms of work, keeps the runs that
// lose or break even, the fabric's matmul10 tiles among them, on one
// goroutine.
const streamWork = 1 << 14

// syncStride is how often, in cycles, a group of several publishes its
// clock to its right neighbour and what it has consumed to its left one,
// and checks whether an error recorded elsewhere has ended its work: a
// power of two.  Strides of 2⁸ and 2¹⁰ read no faster.
const syncStride = 1 << 6

// crossDepth is the size of a boundary's ring, a power of two.  A run
// splits only when the pushes of any one word across a boundary fit half
// of it (crossFits), so the ring always has room for the cycle the
// consumer waits on.
const (
	crossDepth = 1 << 10
	crossMask  = crossDepth - 1
)

// forceGroups, when positive, fixes every run's group count, its size and
// the budget aside (export_test.go).
var forceGroups int

// errStop ends a group's walk early without an error of its own: the
// group to its left stopped, or an error recorded at an earlier cycle
// decides the run.
var errStop = errors.New("sim: stopped")

// group is a contiguous run of the array's cells stepped under a clock of
// its own: the cycle loop over only its own live cells.  Group 0 also
// steps the IU and the host's input; the last group collects the host's
// output.  A run of one group is the sequential walk.
//
// In the skewed model cell i+1 runs the program a fixed skew behind cell
// i and depends only on what cell i has already pushed, so the groups of
// a run of several walk beside each other on spare processors
// (runGroups): the last cell of each group hands what it pushes into
// the next group's first cell — data words, addresses and loop signals
// — to a boundary, each stamped with its cycle, and the right group moves
// the words stamped up to cycle t into the cell's own queues (queue.push)
// before it steps cycle t.  So every queue holds exactly what it holds
// in the sequential walk at every cycle its consumer steps, and its
// occupancy, high-water mark, histogram and checks are the sequential
// walk's own code on the sequential walk's state.
type group struct {
	_ [64]byte // a group's clock stays off its neighbours' cache lines
	*machine
	cells []cell // its cells, an allocation of their own (newMachine)
	k     int    // its index, left to right
	first int    // the array index of its first cell
	now   int64  // its clock
	// Its live window: cells below lo have retired, cells from hi on have
	// not started.
	lo, hi int
	// last is the array's last cycle, to which group 0 of several steps
	// the IU and the host's input once its own cells have retired; -1
	// otherwise.
	last    int64
	in, out *boundary // from the group to the left, to the right; nil at the array's ends
	peers   bool      // the run has several groups

	// The group's first error, ordered by the cycle and the rank of the
	// agent that made it (fail).
	err  error
	at   int64
	rank int

	_ [64]byte
}

// crossing is one word a group's last cell pushed into the next group's
// first cell, stamped with the cycle of the push.
type crossing struct {
	t    int64
	q    uint8   // the queue: w2.ChanX, w2.ChanY, crossAdr or crossSig
	word int64   // an address, or a loop signal's id << 1 | more
	v    float64 // a data word of a run alone; a batched walk's are in vals
}

// The queues a crossing lands in besides the two data queues.
const (
	crossAdr = 2
	crossSig = 3
)

// A boundary carries what one group's last cell pushes into the next
// group's first cell, in push order, through a fixed ring: the producer
// writes at its tail and waits only when the ring is full; the consumer
// reads at its head, and waits only for the producer to complete the
// cycle it is about to step.
type boundary struct {
	ring []crossing
	vals []float64 // a batched walk's data words, one slot's lanes at slot·n
	_    [64]byte

	// The producer's side: its next slot, and the slot at which the ring
	// is full as it last saw it.
	tail, room int64
	_          [64]byte
	// Published by the producer: the slots written, then the cycles it
	// has completed, done << 1 | 1 once it has stopped short of the end.
	written, done atomic.Int64
	_             [64]byte
	// The consumer's side: its next slot, and what it last saw published.
	head, seenTail, seenDone int64
	_                        [64]byte
	freed                    atomic.Int64 // published by the consumer: the slots read
	_                        [64]byte

	arrived, emptied Bell // the consumer waits on arrived, the producer on emptied
}

// retiredDone is what a producer publishes once its cells have retired:
// it will push nothing more.
const retiredDone = math.MaxInt64 >> 1

var boundaryPool = sync.Pool{New: func() any {
	b := &boundary{ring: make([]crossing, crossDepth)}
	b.arrived.Init()
	b.emptied.Init()
	return b
}}

// newBoundary takes a boundary from the pool, ready for a walk n lanes
// wide (0: a run alone).
func newBoundary(n int) *boundary {
	b := boundaryPool.Get().(*boundary)
	b.tail, b.room, b.head, b.seenTail, b.seenDone = 0, crossDepth, 0, 0, 0
	b.written.Store(0)
	b.done.Store(0)
	b.freed.Store(0)
	if len(b.vals) < crossDepth*n {
		b.vals = make([]float64, crossDepth*n)
	}
	return b
}

// publish makes the producer's words visible to the consumer with the
// cycles before done completed, and stopped once it has stopped short of
// the end.
func (b *boundary) publish(done int64, stopped bool) {
	b.written.Store(b.tail)
	pub := done << 1
	if stopped {
		pub |= 1
	}
	b.done.Store(pub)
	b.arrived.Ring()
}

// free hands the slots the consumer has read back to the producer.
func (b *boundary) free() {
	b.freed.Store(b.head)
	b.emptied.Ring()
}

// split returns how many groups a run of n lanes of l walks in, and the
// helpers it holds in the process-wide budget (Enter) until it ends:
// G = 1 + the helpers the budget grants a run of enough work, one group
// per cell at most.  A run with a recorder attached, whose events form
// one global order, walks in one group, and so does a program with a
// word whose pushes across a boundary could fill its ring.
func split(l *Loaded, cfg Config, n int) (groups, helpers int) {
	l.prepare()
	streams := l.crossFits && cfg.Cells > 1 && !obs.Enabled(cmp.Or(cfg.Recorder, obs.Nop()))
	want := 0
	if streams && forceGroups == 0 && l.countErr == nil && l.count.Cycles*int64(cfg.Cells)*int64(n) >= streamWork {
		want = cfg.Cells - 1
	}
	helpers = Enter(want)
	if streams && forceGroups > 0 {
		return min(forceGroups, cfg.Cells), helpers
	}
	return 1 + helpers, helpers
}

// crossFits reports whether every word's pushes across a boundary — its
// sends, memory references and loop ends — fit half a ring.
func crossFits(code *mcode.Decoded) bool {
	for i := range code.Words {
		w := &code.Words[i]
		pushes := int(w.EndHi - w.EndLo)
		for _, o := range code.Ops[w.Lo:w.Hi] {
			switch o.Kind {
			case mcode.OpSend, mcode.OpLoad, mcode.OpStore:
				pushes++
			}
		}
		if pushes >= crossDepth/2 {
			return false
		}
	}
	return true
}

// runGroups walks the machine's groups through Fork, group k as worker
// k, and returns the cycle the walk ended at.  The error is the first in
// the sequential walk's order of (cycle, agent) — the IU, the host, then
// the cells left to right (before) — as each group runs until its own
// first error, or until its clock passes an error recorded at an earlier
// cycle.
func (m *machine) runGroups() (int64, error) {
	gs := m.groupList
	m.stopAt.Store(math.MaxInt64)
	for k := 1; k < len(gs); k++ {
		b := newBoundary(len(m.lanes))
		defer boundaryPool.Put(b)
		left := &gs[k-1]
		c := &left.cells[len(left.cells)-1]
		c.out, left.out, gs[k].in = b, b, b
		// Nothing crosses into the group before its left neighbour's last
		// cell starts.
		gs[k].now = c.start
	}
	if err := Fork(m, len(gs), (*machine).work, (*machine).stopAll, (*machine).before); err != nil {
		return 0, err
	}
	return gs[len(gs)-1].now, nil
}

// work runs group k to its end, tells the group to its right where it
// stopped and returns the group's error.
func (m *machine) work(k int) error {
	g := &m.groupList[k]
	if err := g.run(); err != nil && !errors.Is(err, errStop) {
		g.fail(err, g.now, 2*g.k+1)
	}
	if g.out != nil && g.lo < len(g.cells) {
		g.out.publish(g.now, true)
	}
	return g.err
}

// before reports whether group a's error comes before group b's.
func (m *machine) before(a, b int) bool {
	ga, gb := &m.groupList[a], &m.groupList[b]
	return ga.at < gb.at || ga.at == gb.at && ga.rank < gb.rank
}

// fail records the group's first error, ordered at cycle at with rank
// rank: 2k+1 for an agent of group k, 2k for a word group k's last cell
// pushed across its boundary (the consumer finds the overflow, but it is
// the pushing cell's, made before anything the cell did after it that
// cycle).  Every group whose clock reaches the cycle stops.
func (g *group) fail(err error, at int64, rank int) {
	g.err, g.at, g.rank = err, at, rank
	for s := g.stopAt.Load(); at < s && !g.stopAt.CompareAndSwap(s, at); s = g.stopAt.Load() {
	}
	g.ringAll()
}

// stopAll stops every group of the run (Fork's stop, on a panic).
func (m *machine) stopAll() {
	m.stopAt.Store(math.MinInt64)
	m.ringAll()
}

// ringAll wakes every waiting group to look at the run's state again.
func (m *machine) ringAll() {
	for k := range m.groupList {
		if b := m.groupList[k].in; b != nil {
			b.arrived.Ring()
			b.emptied.Ring()
		}
	}
}

// check is what a waiting group polls: cancellation, which is the
// group's error at its clock, and an error recorded before the cycle the
// group is in, which ends its work.  An error in the cycle itself may be
// the left group's, after words it pushed in the cycle that the group
// must still move (await): the left group's stop says so.
func (g *group) check() error {
	if ctx := g.cfg.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			g.fail(fmt.Errorf("sim: run aborted at cycle %d: %w", g.now, err), g.now, 2*g.k+1)
			return errStop
		}
	}
	if g.stopAt.Load() < g.now {
		return errStop
	}
	return nil
}

// run steps the group's cycles until its cells have retired — and, for
// group 0 of several, on to the array's last cycle — or its first error,
// or a stop.
func (g *group) run() error {
	m, cfg := g.machine, &g.cfg
	limit, words := cfg.Limit(), len(m.code.Words)
	for ; g.lo < len(g.cells) || g.now <= g.last; g.now++ {
		if g.now > limit {
			return fmt.Errorf("sim: exceeded %d cycles; the machine is %w", limit, ErrLivelock)
		}
		if g.now%ctxCheckInterval == 0 {
			if cfg.Ctx != nil {
				if err := cfg.Ctx.Err(); err != nil {
					return fmt.Errorf("sim: run aborted at cycle %d: %w", g.now, err)
				}
			}
			// The last group's clock is the array's least.
			if cfg.Progress != nil && g.now > 0 && g.out == nil {
				cfg.Progress(obs.ProgressUpdate{Cycles: g.now})
			}
		}
		if g.in != nil {
			if err := g.receive(); err != nil {
				return err
			}
		}
		for g.hi < len(g.cells) && g.cells[g.hi].start <= g.now {
			g.hi++
		}
		if err := g.cycle(); err != nil {
			return fmt.Errorf("cycle %d: %w", g.now, err)
		}
		for g.lo < g.hi && g.cells[g.lo].PC >= words {
			if g.lo++; g.lo == len(g.cells) {
				g.retire()
			}
		}
		if g.peers && g.now&(syncStride-1) == 0 {
			if g.out != nil && g.lo < len(g.cells) {
				g.out.publish(g.now+1, false)
			}
			if g.in != nil {
				g.in.free()
			}
			if g.stopAt.Load() <= g.now {
				g.now++ // the cycle is complete
				return errStop
			}
		}
	}
	return nil
}

// retire runs once the group's last cell has retired.  The group to its
// right has every word it will get, and group 0 of several steps the IU
// and the host's input on to the array's last cycle, so that their late
// faults land on their own cycles: every cell runs the one program, the
// same cycles from its start, so the last cell finishes cell 0's run
// after its own start.
func (g *group) retire() {
	if g.out == nil {
		return
	}
	g.out.publish(retiredDone, false)
	if g.k == 0 {
		c0 := &g.cells[0]
		g.last = g.cfg.Lead + int64(g.cfg.Cells-1)*g.cfg.Skew + c0.finish - c0.start
	}
}

// receive moves what the left group's last cell pushed at cycles up to
// the group's clock into its first cell's queues, once the left group has
// completed the cycle.
func (g *group) receive() error {
	b := g.in
	if g.now >= b.seenDone {
		if err := g.await(); err != nil {
			return err
		}
	}
	return g.move()
}

// await waits until the left group has completed the cycle the group is
// about to step, or has stopped short of it: then the words it pushed in
// the cycle are moved, since an overflow among them is its error, and
// the group stops.
func (g *group) await() error {
	b := g.in
	b.free()
	err := b.arrived.Wait(g.cfg.Ctx, func() (bool, error) {
		pub := b.done.Load()
		b.seenDone, b.seenTail = pub>>1, b.written.Load()
		if g.now < b.seenDone || pub&1 != 0 {
			return true, nil
		}
		return false, g.check()
	})
	if err != nil {
		return err
	}
	if g.now >= b.seenDone {
		if err := g.move(); err != nil {
			return err
		}
		return errStop
	}
	return nil
}

// move pushes the words stamped up to the group's clock into its first
// cell's queues, in push order, through queue.push.  An overflow is the
// pushing cell's error at the cycle of the push, and reads as the
// sequential walk reads it: a data word or an address overflows in the
// pushing cell's word, a loop signal as its loops close.
func (g *group) move() error {
	b, c := g.in, &g.cells[0]
	for ; b.head < b.seenTail; b.head++ {
		i := b.head & crossMask
		e := &b.ring[i]
		if e.t > g.now {
			break
		}
		var err error
		switch e.q {
		case crossAdr:
			err = c.adr.push(e.word)
		case crossSig:
			err = c.sig.push(sigItem{id: int(e.word >> 1), more: e.word&1 != 0})
		default:
			if n := len(g.lanes); n > 0 {
				err = c.in[e.q].pushLanes(b.vals[int(i)*n:][:n])
			} else {
				err = c.in[e.q].push(e.v)
			}
		}
		if err != nil {
			b.head++
			if e.q != crossSig {
				err = fmt.Errorf("cell %d: %w", g.first-1, err)
			}
			g.fail(fmt.Errorf("cycle %d: %w", e.t, err), e.t, 2*g.k-2)
			return errStop
		}
	}
	return nil
}

// cross hands a word the group's last cell pushes to the boundary b:
// queue q, and the address or loop signal word, or the data word v, or a
// batched walk's lanes vals.
func (g *group) cross(b *boundary, q uint8, word int64, v float64, vals []float64) error {
	if b.tail == b.room {
		if err := g.makeRoom(b); err != nil {
			return err
		}
	}
	i := b.tail & crossMask
	e := &b.ring[i]
	e.t, e.q, e.word, e.v = g.now, q, word, v
	if vals != nil {
		copy(b.vals[int(i)*len(vals):][:len(vals)], vals)
	}
	b.tail++
	return nil
}

// makeRoom waits until the ring has room.  It publishes the cycles
// before this one first, which the consumer can always consume up to:
// then only this cycle's words can be left, fewer than the ring holds.
func (g *group) makeRoom(b *boundary) error {
	b.publish(g.now, false)
	return b.emptied.Wait(g.cfg.Ctx, func() (bool, error) {
		b.room = b.freed.Load() + crossDepth
		if b.tail < b.room {
			return true, nil
		}
		return false, g.check()
	})
}
