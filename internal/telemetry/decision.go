package telemetry

// CostModel holds the two host-calibrated constants of the first-cut
// backend cost model (ROADMAP: "Cost-model the backend auto-selection").
// Both backends' costs are linear in quantities known at plan-compile
// time: the simulator steps every cell every machine cycle, the fast
// executor replays only the dynamic non-nop operations.
type CostModel struct {
	// SimNSPerCellCycle is the simulator's marginal cost of one cell
	// for one machine cycle, in nanoseconds.
	SimNSPerCellCycle float64 `json:"sim_ns_per_cell_cycle"`
	// FastNSPerOp is the fast executor's marginal cost of one dynamic
	// non-nop operation, in nanoseconds.
	FastNSPerOp float64 `json:"fast_ns_per_op"`
}

// PredictSimNS returns the modeled simulator wall time for a run of
// the given modeled cycle count over the given cell count.
func (m CostModel) PredictSimNS(cycles int64, cells int) int64 {
	return int64(float64(cycles) * float64(cells) * m.SimNSPerCellCycle)
}

// PredictFastNS returns the modeled fast-executor wall time for the
// given dynamic non-nop operation count.
func (m CostModel) PredictFastNS(ops int64) int64 {
	return int64(float64(ops) * m.FastNSPerOp)
}

// Decision is the audit record of one backend choice: which executor
// ran, why, what the cost model predicted for each candidate, and — once
// the run completes — the wall time actually spent.  The paper's
// deterministic cycle counts make PredictedCycles exact, so any
// prediction error is attributable to the calibrated constants alone.
type Decision struct {
	// Backend is the executor that ran: "sim" or "fast".
	Backend string `json:"backend"`
	// Reason explains the choice: "explicit-sim", "explicit-fast",
	// "auto-verified", "unverified", "profile-requested",
	// "cycle-recorder", or "no-fast-plan".
	Reason string `json:"reason"`
	// PredictedCycles is the closed-form modeled machine cycle count
	// (lead + (cells-1)·skew + cell cycles) — the simulator cost input.
	// On deterministic workloads it matches the simulator's count
	// exactly.
	PredictedCycles int64 `json:"predicted_cycles"`
	// Cells is the array size the prediction was made for.
	Cells int `json:"cells"`
	// PredictedOps is the dynamic non-nop operation count — the fast
	// executor cost input.  0 means unknown (no fast plan was built,
	// e.g. the program is unverified).
	PredictedOps int64 `json:"predicted_ops,omitempty"`
	// PredictedSimWallNS and PredictedFastWallNS are the modeled wall
	// times for each candidate backend.  PredictedFastWallNS is 0 when
	// PredictedOps is unknown.
	PredictedSimWallNS  int64 `json:"predicted_sim_wall_ns"`
	PredictedFastWallNS int64 `json:"predicted_fast_wall_ns,omitempty"`
	// ActualWallNS is stamped by the driver when the run completes.
	ActualWallNS int64 `json:"actual_wall_ns,omitempty"`
	// Batch is how many problems shared the run's walk of the fast plan
	// (absent for a run of its own); ActualWallNS is then the walk's wall
	// time divided by it, which the one-problem PredictedFastWallNS
	// overstates by what the batch amortized.
	Batch int `json:"batch,omitempty"`
	// Model records the constants the prediction used, so stored
	// decisions stay interpretable across recalibrations.
	Model CostModel `json:"model"`
}

// PredictedWallNS returns the modeled wall time of the backend that
// actually ran, or 0 if that side of the model had no input.
func (d *Decision) PredictedWallNS() int64 {
	if d == nil {
		return 0
	}
	if d.Backend == "fast" {
		return d.PredictedFastWallNS
	}
	return d.PredictedSimWallNS
}

// ErrorFactor returns the symmetric prediction error of the chosen
// backend: max(actual/predicted, predicted/actual), always >= 1 when
// both sides are known.  It returns 0 when either side is missing, so
// callers can skip unreported decisions.
func (d *Decision) ErrorFactor() float64 {
	if d == nil {
		return 0
	}
	p, a := d.PredictedWallNS(), d.ActualWallNS
	if p <= 0 || a <= 0 {
		return 0
	}
	f := float64(a) / float64(p)
	if f < 1 {
		f = 1 / f
	}
	return f
}
