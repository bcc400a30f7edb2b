package obs

// Summary condenses a run Profile into the scalar aggregates a
// long-lived service exports per run: total machine time, how the
// array's cycles divided between work and the stall classes, the FPU
// utilizations behind the paper's §7 claim, and the peak data-queue
// occupancy.  All fractions are over the summed cell-active windows.
type Summary struct {
	Cycles int64
	Cells  int

	// BusyFrac is the fraction of cell-active cycles in which at least
	// one functional-unit field issued.
	BusyFrac float64
	// AddUtil and MulUtil are the per-FPU issue fractions over the
	// active window, summed across cells.
	AddUtil float64
	MulUtil float64
	// StarvedFrac and BubbleFrac attribute the non-busy active cycles:
	// starved by the upstream producer vs. scheduled bubbles.
	StarvedFrac float64
	BubbleFrac  float64

	// PeakQueue is the exact high-water mark over the data queues and
	// PeakQueueAt the queue that reached it.
	PeakQueue   int
	PeakQueueAt string
	// HostStall is the total host-input backpressure in cycles (X+Y).
	HostStall int64
}

// Summarize aggregates the profile.  It is cheap (one pass over the
// per-cell records) and safe on a nil profile, which yields the zero
// Summary.
func (p *Profile) Summarize() Summary {
	if p == nil {
		return Summary{}
	}
	s := Summary{
		Cycles:    p.Cycles,
		Cells:     p.Cells,
		HostStall: p.HostStallX + p.HostStallY,
	}
	var active, busy, starved, bubble, add, mul int64
	for i := range p.Cell {
		c := &p.Cell[i]
		active += c.Active()
		busy += c.Busy
		starved += c.Starved
		bubble += c.Bubble
		add += c.AddOps
		mul += c.MulOps
	}
	if active > 0 {
		s.BusyFrac = float64(busy) / float64(active)
		s.AddUtil = float64(add) / float64(active)
		s.MulUtil = float64(mul) / float64(active)
		s.StarvedFrac = float64(starved) / float64(active)
		s.BubbleFrac = float64(bubble) / float64(active)
	}
	s.PeakQueue, s.PeakQueueAt = p.MaxQueue()
	return s
}

// Decision is the audit record of one backend choice: which executor
// ran, why, the run's exact cost in machine cycles and dynamic
// operations, and — once the run completes — the wall time actually
// spent.  Warp is statically scheduled, so the counts are known before
// the run and equal what the simulator counts; everything else here is
// measured.
type Decision struct {
	// Backend is the executor that ran: "sim" or "fast".
	Backend string `json:"backend"`
	// Reason explains the choice: "explicit-sim", "explicit-fast",
	// "auto-verified", "profile-requested" or "cycle-recorder".
	Reason string `json:"reason"`
	// PredictedCycles is the closed-form machine cycle count
	// (lead + (cells-1)·skew + cell cycles).  On deterministic workloads
	// it matches the executed cycle count exactly, on either backend.
	PredictedCycles int64 `json:"predicted_cycles"`
	// Cells is the array size the counts are for.
	Cells int `json:"cells"`
	// PredictedOps is the dynamic non-nop operation count over all cells
	// — the fast executor's work, recorded whichever executor ran.
	PredictedOps int64 `json:"predicted_ops,omitempty"`
	// ActualWallNS is stamped by the driver when the run completes.
	ActualWallNS int64 `json:"actual_wall_ns,omitempty"`
	// Batch is how many problems shared the run's walk of the fast plan
	// (absent for a run of its own); ActualWallNS is then the walk's wall
	// time divided by it.
	Batch int `json:"batch,omitempty"`
}

// ErrorFactor always returns 0: a decision carries no wall-time
// prediction to be wrong about.  Kept for benchmark/, see ROADMAP 1(c).
func (d *Decision) ErrorFactor() float64 { return 0 }
