package warp

import (
	"context"
	"fmt"

	"warp/internal/driver"
	"warp/internal/fabric"
	"warp/internal/prof"
)

// Problem is an oversized workload for RunPartitioned — one whose
// operands exceed what a single compiled array kernel accepts.
// Construct one with MatmulProblem or Conv1DProblem.
type Problem struct {
	kind string
	mm   fabric.Matmul
	cv   fabric.Conv1D
}

// MatmulProblem describes the matrix product C = A×B with A m×k and
// B k×n, both row-major.  RunPartitioned decomposes it into the
// T×T-block tiles of the compiled matmul kernel (T = its array size),
// zero-padding edge blocks, and accumulates each output block's
// reduction partials in a fixed ascending order.
func MatmulProblem(m, k, n int, a, b []float64) Problem {
	return Problem{kind: "matmul", mm: fabric.Matmul{M: m, K: k, N: n, A: a, B: b}}
}

// Conv1DProblem describes the 1-D convolution of x with the kernel:
// out[i] = Σ_j kernel[j]·x[i+j].  RunPartitioned slices x into
// overlapping windows of the compiled conv kernel's input size — the
// kernel−1-point halo at each boundary — so every output element is
// computed whole inside one tile and the partitioned result is
// bit-exact against the un-partitioned program for arbitrary data.
func Conv1DProblem(kernel, x []float64) Problem {
	return Problem{kind: "conv1d", cv: fabric.Conv1D{Kernel: kernel, X: x}}
}

// FabricStats aggregates a partitioned run: tile dispatch counters
// (dispatched, retried, failed), the summed machine time of all tiles,
// the modeled N-array makespan and the resulting deterministic speedup
// over a single array, the staged host I/O traffic, and the
// cycle-weighted utilization profile.  See fabric.Stats for the field
// documentation.
type FabricStats = fabric.Stats

// TileError is the structured per-tile failure RunPartitioned returns
// when one tile exhausts its bounded attempts: the tile index, the
// attempt count, and the final underlying error (errors.Is sees
// through it, e.g. to ErrLivelock).  Extract it with errors.As.
type TileError = fabric.TileError

// RunPartitioned executes an oversized problem by farming array-sized
// tiles of it across cfg.Arrays concurrent instances of the simulated
// machine, all running this compiled program as the tile kernel.  The
// partitioner sizes tiles against the kernel's array geometry and the
// cell-memory budget; the farm double-buffers host I/O (each array's
// next tile is staged while the current one runs), bounds each tile
// attempt with cfg.TileDeadline, retries livelocked tiles up to
// cfg.TileRetries times, and fails the job with a *TileError — without
// hanging — when a tile exhausts its attempts.  The stitched output is
// keyed by the kernel's out parameter, mirroring Run, and is a pure
// function of the problem: identical across runs regardless of tile
// completion order.
func (p *Program) RunPartitioned(cfg RunConfig, prob Problem) (map[string][]float64, *FabricStats, error) {
	return p.runPartitioned(cfg, prob, true)
}

// runPartitioned is RunPartitioned; without batch every tile takes the
// per-tile path, the reference the batched farm is tested against.
func (p *Program) runPartitioned(cfg RunConfig, prob Problem, batch bool) (map[string][]float64, *FabricStats, error) {
	pl, err := p.partitionPlan(prob)
	if err != nil {
		return nil, nil, err
	}
	// Tiles run like any single-array run, under their attempt's context,
	// and share the kernel's one cached fast plan, so a verified kernel
	// runs the whole farm at dataflow speed.  First attempts go a batch at
	// a time, one walk of the kernel for all of a batch's tiles on either
	// backend (driver.RunBatch chooses the width).
	opts := driver.RunOptions{MaxCycles: cfg.MaxCycles, Profile: cfg.Profile, Backend: cfg.Backend}
	runTiles := func(ctx context.Context, _ []fabric.Tile, ins []map[string][]float64) ([][]float64, []fabric.TileStats, error) {
		opts := opts
		opts.Ctx = ctx
		outs, stats, err := driver.RunBatch(p.c, ins, opts)
		if err != nil {
			return nil, nil, err
		}
		res, ts := make([][]float64, len(outs)), make([]fabric.TileStats, len(outs))
		for i, rs := range stats {
			res[i] = outs[i][pl.OutName()]
			ts[i] = fabric.TileStats{Cycles: rs.Cycles, Backend: rs.Backend, Decision: rs.Decision, Summary: rs.Obs.Summarize()}
			if cfg.Profile {
				ts[i].Source = prof.BuildSource(p.c.Debug, rs.Obs.PC, rs.Cycles)
			}
		}
		return res, ts, nil
	}
	run := func(ctx context.Context, _ fabric.Tile, in map[string][]float64) ([]float64, fabric.TileStats, error) {
		res, ts, err := runTiles(ctx, nil, []map[string][]float64{in})
		if err != nil {
			return nil, fabric.TileStats{}, err
		}
		return res[0], ts[0], nil
	}
	fcfg := fabric.Config{
		Arrays:   cfg.Arrays,
		Deadline: cfg.TileDeadline,
		Retries:  cfg.TileRetries,
		Progress: cfg.Progress,
	}
	if batch {
		fcfg.Batch = runTiles
	}
	out, stats, err := fabric.Run(cfg.Context, pl, fcfg, run)
	if err != nil {
		return nil, stats, err
	}
	if cfg.Progress != nil && stats != nil {
		cfg.Progress(ProgressUpdate{
			Cycles:    stats.AggregateCycles,
			TilesDone: stats.Tiles - stats.Failed,
			Tiles:     stats.Tiles,
			Done:      true,
		})
	}
	return map[string][]float64{pl.OutName(): out}, stats, nil
}

// partitionPlan builds the tile plan for prob against this program's
// kernel shape and the hardware's limits (fabric.DefaultLimits).
func (p *Program) partitionPlan(prob Problem) (*fabric.Plan, error) {
	var tp fabric.TileProgram
	tp.Cells = p.c.Cells
	for _, prm := range p.Params() {
		if prm.Out {
			tp.Out = fabric.Param{Name: prm.Name, Size: prm.Size}
		} else {
			tp.In = append(tp.In, fabric.Param{Name: prm.Name, Size: prm.Size})
		}
	}
	lim := fabric.DefaultLimits(p.c.Cells)
	switch prob.kind {
	case "matmul":
		return fabric.PlanMatmul(prob.mm, tp, lim)
	case "conv1d":
		return fabric.PlanConv1D(prob.cv, tp, lim)
	}
	return nil, fmt.Errorf("warp: zero Problem; use MatmulProblem or Conv1DProblem")
}
