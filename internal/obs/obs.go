// Package obs is the observability layer shared by the compiler and the
// simulator: a zero-overhead-when-disabled event recorder, an aggregate
// run profile with per-cell stall attribution, and exporters (a Chrome
// trace-event writer loadable in Perfetto, and a compact text
// utilization report matching the paper's §7 framing).
//
// The simulator calls the Recorder on its per-cycle hot path, so the
// design rules are strict: every event method takes only scalar
// arguments (no strings, no maps, no variadics), the no-op recorder
// must be allocation-free, and callers guard event emission behind a
// single bool so a disabled recorder costs one predictable branch.
package obs

// Unit identifies a cell functional unit issuing in a cycle.
type Unit uint8

const (
	UnitAdd Unit = iota // ADD FPU (adds, compares, booleans, select)
	UnitMul             // MUL FPU (multiplies, divides)
	UnitMov             // crossbar register move
	NumUnits
)

var unitNames = [...]string{UnitAdd: "add", UnitMul: "mul", UnitMov: "mov"}

func (u Unit) String() string { return unitNames[u] }

// Queue identifies one of the hardware queues at a cell's input
// boundary.
type Queue uint8

const (
	QueueX   Queue = iota // data channel X
	QueueY                // data channel Y
	QueueAdr              // address queue from the IU / upstream cell
	NumQueues
)

var queueNames = [...]string{QueueX: "X", QueueY: "Y", QueueAdr: "Adr"}

func (q Queue) String() string { return queueNames[q] }

// Stall classifies a cycle a cell (or the host) spent not issuing work.
// The Warp array is statically scheduled — a cell never blocks at run
// time — so "stall" here means a cycle the schedule could not fill, and
// the attribution says why.
type Stall uint8

const (
	// StallSkewLead: the cell has not started yet — it is waiting out
	// its skew delay (plus the IU prologue lead for the whole array).
	StallSkewLead Stall = iota
	// StallQueueEmpty: the cell executed a scheduled nop while both its
	// data queues were empty — it was starved by its upstream producer.
	StallQueueEmpty
	// StallBubble: the cell executed a scheduled nop although input
	// data was available — a bubble in the compiler's schedule (e.g.
	// waiting out FPU latency), not a data-supply problem.
	StallBubble
	// StallQueueFull: a producer could not push because the downstream
	// queue was full.  Only the host can experience this (cells would
	// fault instead); the cycle is attributed to the consuming cell 0.
	StallQueueFull
	// StallDrain: the cell finished its program and is waiting for the
	// rest of the (skewed) array to drain.
	StallDrain
	NumStalls
)

var stallNames = [...]string{
	StallSkewLead:   "skew-lead",
	StallQueueEmpty: "queue-empty",
	StallBubble:     "bubble",
	StallQueueFull:  "queue-full",
	StallDrain:      "drain",
}

func (s Stall) String() string { return stallNames[s] }

// Recorder receives instrumentation events from the simulator's cycle
// loop.  All cycle arguments are absolute machine cycles.
// Implementations must not retain argument aliasing assumptions: every
// argument is a scalar.  Compile timing is not an event stream: it is
// the []PhaseStat on the compiled artifact, and every view of it (spans,
// the Chrome compiler track, /metrics) is derived from that record.
type Recorder interface {
	// RunStart announces the array geometry before the first cycle.
	RunStart(cells int, skew, lead int64)
	// RunEnd announces the final cycle count.
	RunEnd(cycle int64)
	// CellStart fires on the first cycle a cell executes.
	CellStart(cycle int64, cell int)
	// CellFinish fires on the cycle a cell retires its last instruction.
	CellFinish(cycle int64, cell int)
	// Issue reports one functional-unit field issuing this cycle.
	Issue(cycle int64, cell int, unit Unit)
	// MemRef reports one data-memory reference on the given port.
	MemRef(cycle int64, cell int, port int, addr int64, store bool)
	// QueuePush reports a word entering a queue; occ is the occupancy
	// after the push.
	QueuePush(cycle int64, cell int, q Queue, occ int)
	// QueuePop reports a word leaving a queue; occ is the occupancy
	// after the pop.
	QueuePop(cycle int64, cell int, q Queue, occ int)
	// Stall attributes one idle cycle of one cell (see Stall).
	Stall(cycle int64, cell int, s Stall)
}

// nopRecorder is the shared allocation-free no-op Recorder.
type nopRecorder struct{}

func (nopRecorder) RunStart(int, int64, int64)          {}
func (nopRecorder) RunEnd(int64)                        {}
func (nopRecorder) CellStart(int64, int)                {}
func (nopRecorder) CellFinish(int64, int)               {}
func (nopRecorder) Issue(int64, int, Unit)              {}
func (nopRecorder) MemRef(int64, int, int, int64, bool) {}
func (nopRecorder) QueuePush(int64, int, Queue, int)    {}
func (nopRecorder) QueuePop(int64, int, Queue, int)     {}
func (nopRecorder) Stall(int64, int, Stall)             {}

var nop Recorder = nopRecorder{}

// Nop returns the shared no-op Recorder.
func Nop() Recorder { return nop }

// Enabled reports whether r is a real recorder: non-nil and not the
// no-op.  Hot paths cache this answer in a bool and branch on it; the
// driver uses it to decide when the fast backend would lose
// observability.
func Enabled(r Recorder) bool { return r != nil && r != nop }

// PhaseStat is one compiler phase's timing and size record.
type PhaseStat struct {
	Name    string
	Seconds float64
	// Size is a phase-specific magnitude: source lines for the parser,
	// instructions for the code generators, transformation counts for
	// the optimizer, the skew in cycles for the skew analysis.
	Size int
	Note string
	// Start is the phase's start offset from the beginning of the
	// compilation, in seconds.  A compilation is one goroutine, so the
	// phases of one compile never overlap and Σ Seconds ≤ its wall time.
	Start float64
}
