package obs

import (
	"fmt"
	"strings"
)

// DepthProfile aggregates one cell's activity at one loop-nesting
// depth.  Depth 0 is straight-line code outside every loop; the deepest
// depth with nonzero cycles is the cell's innermost loop — the region
// the paper's §7 claim ("all the arithmetic units are fully utilized in
// the innermost loop") is about.
type DepthProfile struct {
	Cycles int64
	AddOps int64
	MulOps int64
}

// CellProfile attributes every machine cycle of one cell.
// Start..Finish is the cell's active window; within it every cycle is
// either Busy (at least one field issued) or a Starved/Bubble stall.
// Outside it the cycles are SkewLead (before) and Drain (after).
type CellProfile struct {
	Start  int64
	Finish int64

	AddOps int64
	MulOps int64
	MovOps int64
	Loads  int64
	Stores int64

	Busy     int64
	Starved  int64 // scheduled nops with both data queues empty
	Bubble   int64 // scheduled nops with input data available
	SkewLead int64 // idle cycles before Start relative to cell 0 (= cell·skew); the array-wide IU lead is Profile.Lead
	Drain    int64 // idle cycles after Finish, waiting for the array

	// Depth[d] aggregates the cycles executed at loop-nesting depth d.
	Depth []DepthProfile
}

// Active returns the number of cycles the cell executed instructions:
// every cycle of the active window is busy or attributed to a stall.
func (c *CellProfile) Active() int64 { return c.Busy + c.Starved + c.Bubble }

// Inner returns the profile of the cell's innermost loop: the deepest
// nesting depth that executed any cycles (nil if the cell ran no code).
func (c *CellProfile) Inner() *DepthProfile {
	for d := len(c.Depth) - 1; d >= 0; d-- {
		if c.Depth[d].Cycles > 0 {
			return &c.Depth[d]
		}
	}
	return nil
}

// PCProfile holds one cell's exact per-µPC cycle counters, indexed by
// the static µprogram address: the instruction's index in
// mcode.WalkInstrs order.  For every executed instruction the simulator
// increments exactly one of the three counters at its PC, so for each
// cell
//
//	Σ_pc (Busy+Starved+Bubble) == CellProfile.Active()
//
// — no simulated active cycle is unattributed.  Only filled when the
// run requested profiling (sim.Config.PCStats); nil otherwise.
type PCProfile struct {
	Busy    []int64
	Starved []int64
	Bubble  []int64
}

// QueueProfile describes one hardware queue at one cell's input
// boundary over a run.
type QueueProfile struct {
	Name  string // e.g. "cell2.X"
	Cell  int    // consuming cell index
	Queue Queue

	// HighWater is the exact peak occupancy, observed at push time
	// (an intra-cycle peak can exceed the end-of-cycle occupancy when
	// the downstream agent pops in the same cycle).
	HighWater int
	Pushes    int64
	Pops      int64
	// Hist[d] counts the cycles the queue ended with occupancy d.
	Hist []int64
}

// meanOcc returns the time-averaged occupancy from the histogram.
func (q *QueueProfile) meanOcc() float64 {
	var cycles, sum int64
	for d, n := range q.Hist {
		cycles += n
		sum += int64(d) * n
	}
	if cycles == 0 {
		return 0
	}
	return float64(sum) / float64(cycles)
}

// pctOcc returns the occupancy at or below which the queue spent the
// given fraction of cycles (a histogram percentile).
func (q *QueueProfile) pctOcc(frac float64) int {
	var cycles int64
	for _, n := range q.Hist {
		cycles += n
	}
	if cycles == 0 {
		return 0
	}
	target := int64(frac * float64(cycles))
	var seen int64
	for d, n := range q.Hist {
		seen += n
		if seen > target {
			return d
		}
	}
	return len(q.Hist) - 1
}

// Profile is the aggregate observability record of one simulated run.
// The simulator fills it on every run (the counters are a handful of
// integer increments per cycle); the event Recorder is only needed for
// the streaming exporters.
type Profile struct {
	Cells  int
	Cycles int64
	Skew   int64
	Lead   int64

	Cell   []CellProfile
	Queues []QueueProfile

	// PC holds the exact per-µPC counters per cell when the run was
	// profiled (sim.Config.PCStats); nil on unprofiled runs.
	PC []PCProfile

	// HostStallX/Y count cycles the host input stream was blocked by a
	// full queue into cell 0 (queue-full backpressure).
	HostStallX int64
	HostStallY int64

	// Phases carries the compiler's per-phase timing when the run came
	// from a compiled program (optional).
	Phases []PhaseStat
}

// MaxQueue returns the peak occupancy over the data queues (X and Y)
// and the name of the queue that reached it — the per-queue refinement
// of the old single global counter.
func (p *Profile) MaxQueue() (int, string) {
	max, name := 0, ""
	for i := range p.Queues {
		q := &p.Queues[i]
		if q.Queue != QueueX && q.Queue != QueueY {
			continue
		}
		if q.HighWater > max {
			max, name = q.HighWater, q.Name
		}
	}
	return max, name
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// UtilizationReport renders the per-cell utilization and stall table:
// how each cell spent its cycles, the arithmetic-unit utilization over
// its busy cycles and over its innermost loop (the paper's §7 claim),
// and the per-queue high-water marks.
func (p *Profile) UtilizationReport() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "run: %d cells, skew %d, lead %d, %d cycles\n\n", p.Cells, p.Skew, p.Lead, p.Cycles)

	fmt.Fprintf(&sb, "per-cell utilization and stall attribution (cycles):\n")
	fmt.Fprintf(&sb, "%4s %8s %7s %7s %7s | %7s %7s | %8s %7s %8s %7s\n",
		"cell", "active", "busy%", "add%", "mul%", "in.add%", "in.mul%",
		"starved", "bubble", "skew-in", "drain")
	var tot CellProfile
	var totInner DepthProfile
	for i := range p.Cell {
		c := &p.Cell[i]
		active := c.Active()
		innerAdd, innerMul := 0.0, 0.0
		if in := c.Inner(); in != nil {
			innerAdd = pct(in.AddOps, in.Cycles)
			innerMul = pct(in.MulOps, in.Cycles)
			totInner.Cycles += in.Cycles
			totInner.AddOps += in.AddOps
			totInner.MulOps += in.MulOps
		}
		fmt.Fprintf(&sb, "%4d %8d %6.1f%% %6.1f%% %6.1f%% | %6.1f%% %6.1f%% | %8d %7d %8d %7d\n",
			i, active, pct(c.Busy, active), pct(c.AddOps, active), pct(c.MulOps, active),
			innerAdd, innerMul, c.Starved, c.Bubble, c.SkewLead, c.Drain)
		tot.Busy += c.Busy
		tot.AddOps += c.AddOps
		tot.MulOps += c.MulOps
		tot.Starved += c.Starved
		tot.Bubble += c.Bubble
		tot.SkewLead += c.SkewLead
		tot.Drain += c.Drain
		tot.Finish += active
	}
	fmt.Fprintf(&sb, "%4s %8d %6.1f%% %6.1f%% %6.1f%% | %6.1f%% %6.1f%% | %8d %7d %8d %7d\n",
		"all", tot.Finish, pct(tot.Busy, tot.Finish), pct(tot.AddOps, tot.Finish), pct(tot.MulOps, tot.Finish),
		pct(totInner.AddOps, totInner.Cycles), pct(totInner.MulOps, totInner.Cycles),
		tot.Starved, tot.Bubble, tot.SkewLead, tot.Drain)
	sb.WriteString("(add%/mul% over the active window; in.add%/in.mul% over the innermost loop — §7's\n" +
		" \"all the arithmetic units are fully utilized in the innermost loop\" is in.≈100%)\n\n")

	fmt.Fprintf(&sb, "queue high-water marks and occupancy:\n")
	fmt.Fprintf(&sb, "%-12s %6s %8s %8s %8s %8s\n", "queue", "peak", "mean", "p50", "p95", "pushes")
	for i := range p.Queues {
		q := &p.Queues[i]
		if q.Pushes == 0 && q.HighWater == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-12s %6d %8.2f %8d %8d %8d\n",
			q.Name, q.HighWater, q.meanOcc(), q.pctOcc(0.50), q.pctOcc(0.95), q.Pushes)
	}
	if max, name := p.MaxQueue(); name != "" {
		fmt.Fprintf(&sb, "peak data-queue occupancy %d at %s\n", max, name)
	}
	if p.HostStallX > 0 || p.HostStallY > 0 {
		fmt.Fprintf(&sb, "host input backpressure (queue-full): X %d cycles, Y %d cycles\n",
			p.HostStallX, p.HostStallY)
	}
	return sb.String()
}

// PhaseReport renders the compiler's per-phase timing table.
func PhaseReport(phases []PhaseStat) string {
	if len(phases) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "compiler phases:\n%-18s %12s %8s  %s\n", "phase", "time", "size", "note")
	var total float64
	for _, ph := range phases {
		total += ph.Seconds
		fmt.Fprintf(&sb, "%-18s %10.3fms %8d  %s\n", ph.Name, ph.Seconds*1e3, ph.Size, ph.Note)
	}
	fmt.Fprintf(&sb, "%-18s %10.3fms\n", "total", total*1e3)
	return sb.String()
}
