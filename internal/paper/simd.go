package paper

// This file models the comparison of §3 (Figure 3-1): the latency of a
// pipeline stage under the SIMD computation model versus the skewed
// computation model.
//
// A stage is a block of stageLen one-cycle steps executed by every cell.
// Inter-cell dependences say that step Consumer of a cell uses the
// result of step Producer of its left neighbour, for the same data set.

// StageDep is one inter-cell dependence within a pipeline stage.
// Steps are 0-based.
type StageDep struct {
	Producer int64 // step of the left neighbour producing the value
	Consumer int64 // step of this cell consuming it
}

// SkewedLatency returns the per-cell latency (equivalently, the minimum
// skew between adjacent cells) under the skewed computation model: the
// smallest delay d such that for every dependence, this cell's consumer
// step runs strictly after the neighbour's producer step:
//
//	d + consumer ≥ producer + 1.
//
// With no dependences the cells may run in lockstep (latency 0).
func SkewedLatency(stageLen int64, deps []StageDep) int64 {
	var d int64
	for _, dep := range deps {
		d = max(d, dep.Producer-dep.Consumer+1)
	}
	return d
}

// SIMDLatency returns the per-cell latency under the SIMD computation
// model.  All cells execute the same step in the same cycle, so a value
// produced by the neighbour during the current stage execution can only
// be consumed in the next full execution of the stage: each data set
// advances one cell per stage, and the latency through each cell is the
// whole stage time (§3).
func SIMDLatency(stageLen int64, deps []StageDep) int64 {
	if len(deps) == 0 {
		return 0
	}
	return stageLen
}

// PipelineLatency returns the total latency for one data set to flow
// through an array of cells cells, given the per-cell latency and the
// stage length: the last cell starts the set after (cells−1) per-cell
// latencies and finishes a stage later.
func PipelineLatency(cells, perCell, stageLen int64) int64 {
	if cells <= 0 {
		return 0
	}
	return (cells-1)*perCell + stageLen
}

// StageStart returns the cycle at which the given cell begins the given
// data set under either model; it is what Figure 3-1 tabulates.
// Under the skewed model a cell starts set d as soon as its own
// pipeline slot frees (stageLen per set) and its dependences allow
// (perCell per upstream cell).  Under the SIMD model every cell begins
// a stage in lockstep, so cell c processes set d in global stage d+c.
func StageStart(simd bool, cell, set, perCell, stageLen int64) int64 {
	if simd {
		return (set + cell) * stageLen
	}
	return cell*perCell + set*stageLen
}
