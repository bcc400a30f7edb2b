// Package sim is a cycle-accurate simulator of the Warp machine (§2):
// a linear array of identical microprogrammed cells under a global
// clock, an interface unit generating addresses and loop control
// signals, and a host feeding and collecting the data streams.
//
// The simulator is the reproduction's stand-in for the 1986 hardware:
// compiled microcode runs cycle by cycle, and every guarantee the
// compiler must establish — no queue underflow or overflow, addresses
// and signals arriving in time, correct skew — is checked dynamically,
// turning scheduling bugs into simulation errors instead of silently
// wrong numbers.
//
// Timing model (matching the paper's examples, e.g. Figure 6-3 where an
// output and its matching input share a cycle):
//
//   - agents execute each cycle in upstream-to-downstream order
//     (IU, host, cell 0, cell 1, ...), so a word pushed at cycle t can
//     be popped by the downstream agent in the same cycle t;
//   - register writes land at issue+latency (1 for moves, literals,
//     loads and receives; FPULatency for FPU results);
//   - memory stores become visible the cycle after issue.
//
// Execution model.  Nothing above is interpreted from the compiler's
// data structures on the cycle loop, and the simulator lowers nothing
// itself: it steps the one decoded cell program of the program's load
// (Load: mcode.Decode once per program, which the fast executor runs
// too), compact words — skip, µPC, op range, loop
// ends, literal — over the one op stream, a word's fields in the order
// they execute, every static choice made.  Every cell steps them with a
// word index, the idle cycles run of the word's skip and one iteration
// counter per depth.  An idle cycle only splits itself into starved or
// bubble by queue state; an issuing one runs the word's ops, its writes
// landing through mcode.CellRegs, or lane-wide through mcode.LaneRegs.
// What a cell issues is the program's — every cell runs every word as
// often as the trip counts around it multiply to — so busy cycles, FPU
// and memory operations, depth rows and per-µPC busy counters are the
// load's count and sums over its words once the run ends (Closed), the
// closed form the fast executor returns too.  Addresses come from the IU's Adr
// queue, never from the words' bound terms, so the simulator stays an
// independent check of the verifier.  All state is allocated once per
// run, in proportion to the program and the cells and never to the
// cycles.  Cells start and finish in index order, so a cycle loop steps
// only the window of live cells: the others' idle-stall events go only
// to an attached recorder, and their queues' untouched cycles are added
// to the histograms in bulk at the end.
//
// Groups.  Cell i+1 runs the program a fixed skew behind cell i and
// reads only what cell i has already pushed, so the machine need not
// step in lock step to be cycle-exact.  A run of enough work splits the
// array into contiguous groups of cells (group.go), each with a clock and
// a cycle loop of its own on a spare processor: a group's last cell
// hands each word it pushes right to a fixed ring stamped with the cycle
// of the push, and the next group moves the words stamped up to cycle t
// into its first cell's queues before it steps cycle t.  Every queue then
// holds what it holds in lock step at every cycle its cell reads it, so a
// run in groups returns the lock-stepped run's images, record and first
// error.  Helpers come from one process-wide budget of processors that
// the fast executor shares (Enter).
//
// Batch axis.  The IU generates every address and loop signal without
// looking at the data, and W2 has no data-dependent control, so N
// problems of one program run the same cycles under the same queue
// occupancies and signals.  RunBatch steps them through one machine: one
// walk of its groups, one IU, one host-stream reader per channel, one sequencer
// per cell and one set of queue counters, histograms and accounting,
// with only the values — registers, writes in flight, X and Y queue
// words and cell memory — N lanes wide (lanes.go).
package sim

import (
	"fmt"
	"strconv"

	"warp/internal/mcode"
	"warp/internal/obs"
)

// queue is a bounded FIFO — a ring of the hardware's 128 words — with
// underflow/overflow detection and always-on occupancy accounting: an
// exact push-time high-water mark, push/pop counts, and a per-cycle
// occupancy histogram sampled by the machine at the end of each cycle
// (see cell.sampleQueues).
type queue[T any] struct {
	cell int       // consuming cell index
	kind obs.Queue // obs.NumQueues for the untracked Sig queue

	head int // index of the oldest word in buf
	n    int // occupancy

	high   int // exact peak occupancy, observed at push time
	pushes int64
	pops   int64
	hist   []int64 // hist[d] = cycles ending with occupancy d

	buf [mcode.QueueDepth]T
	// vals holds a data queue's words in a batched walk, n lanes to a
	// slot: lane l's word in slot s at vals[s·n+l].  buf is then unused.
	vals []float64
}

// ringMask wraps a ring index; the hardware depth is a power of two
// (the array below has negative length otherwise).
const ringMask = mcode.QueueDepth - 1

var _ [-(mcode.QueueDepth & ringMask)]struct{}

// name identifies the queue by channel and cell boundary: "cell1.X" is
// the X queue into cell 1, fed by cell 0.
func (q *queue[T]) name() string {
	kind := "Sig"
	if q.kind < obs.NumQueues {
		kind = q.kind.String()
	}
	return "cell" + strconv.Itoa(q.cell) + "." + kind
}

// init identifies an (embedded, zero) queue and hands it its histogram;
// nil for a queue that is never sampled.
func (q *queue[T]) init(cell int, kind obs.Queue, hist []int64) {
	q.cell, q.kind, q.hist = cell, kind, hist
}

func (q *queue[T]) push(v T) error {
	if q.n >= len(q.buf) {
		return q.overflow()
	}
	q.buf[(q.head+q.n)&ringMask] = v
	q.n++
	q.pushes++
	if q.n > q.high {
		q.high = q.n
	}
	return nil
}

func (q *queue[T]) pop() (T, error) {
	if q.n == 0 {
		var zero T
		return zero, q.underflow()
	}
	v := q.buf[q.head]
	q.head = (q.head + 1) & ringMask
	q.n--
	q.pops++
	return v, nil
}

// pushLanes is push for a data queue of a batched walk: it pushes one
// word per lane, src.
func (q *queue[T]) pushLanes(src []float64) error {
	if q.n >= len(q.buf) {
		return q.overflow()
	}
	n := len(src)
	copy(q.vals[((q.head+q.n)&ringMask)*n:][:n], src)
	q.n++
	q.pushes++
	if q.n > q.high {
		q.high = q.n
	}
	return nil
}

// popLanes is pop for a data queue of a batched walk: it pops one word
// per lane into dst.
func (q *queue[T]) popLanes(dst []float64) error {
	if q.n == 0 {
		return q.underflow()
	}
	n := len(dst)
	copy(dst, q.vals[q.head*n:][:n])
	q.head = (q.head + 1) & ringMask
	q.n--
	q.pops++
	return nil
}

func (q *queue[T]) overflow() error {
	return fmt.Errorf("sim: queue %s overflows its %d words", q.name(), len(q.buf))
}

func (q *queue[T]) underflow() error {
	return fmt.Errorf("sim: queue %s underflows (receive before the matching send)", q.name())
}

// profile snapshots the queue's accounting for the run profile.
func (q *queue[T]) profile() obs.QueueProfile {
	return obs.QueueProfile{
		Name: q.name(), Cell: q.cell, Queue: q.kind,
		HighWater: q.high, Pushes: q.pushes, Pops: q.pops, Hist: q.hist,
	}
}
