package telemetry

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
	// "auto-verified", "unverified", "profile-requested",
	// "cycle-recorder", or "no-fast-plan".
	Reason string `json:"reason"`
	// PredictedCycles is the closed-form machine cycle count
	// (lead + (cells-1)·skew + cell cycles).  On deterministic workloads
	// it matches the executed cycle count exactly, on either backend.
	PredictedCycles int64 `json:"predicted_cycles"`
	// Cells is the array size the counts are for.
	Cells int `json:"cells"`
	// PredictedOps is the dynamic non-nop operation count over all cells
	// — the fast executor's work.  0 means unknown (the program is
	// unverified, so it has no fast side).
	PredictedOps int64 `json:"predicted_ops,omitempty"`
	// ActualWallNS is stamped by the driver when the run completes.
	ActualWallNS int64 `json:"actual_wall_ns,omitempty"`
	// Batch is how many problems shared the run's walk of the fast plan
	// (absent for a run of its own); ActualWallNS is then the walk's wall
	// time divided by it.
	Batch int `json:"batch,omitempty"`
}

// ErrorFactor always returns 0: a decision carries no wall-time
// prediction to be wrong about.  Kept for benchmark/, see ROADMAP 1.
func (d *Decision) ErrorFactor() float64 { return 0 }
