// Package fabric is the multi-array execution layer: it partitions
// problems too large for one Warp array into array-sized tiles and
// farms the tiles across a pool of independent cycle-accurate
// simulator instances.
//
// The paper's host-generation chapter assumes the whole problem fits
// the ten-cell array and its 4K-word cell memories; Gross & Lam leave
// problem partitioning to the programmer ("the host is responsible for
// partitioning the computation").  This package is that missing layer,
// in the style later codified by systolic-array tiling models
// (SCALE-Sim): an output-tile decomposition sized to the array
// geometry, per-tile input slicing with halo overlap for convolution,
// and a deterministic stitch that reassembles the full result
// independent of tile completion order.  One compiled tile kernel is
// instantiated across every tile — the symbolic-configuration idea of
// the tightly-coupled-processor-array compilation line.
//
// The two halves:
//
//   - The partitioner (plan.go): Plan* functions compute a Plan — the
//     tile list, each tile's input slices, and the stitch — from a
//     Problem and the shape of the compiled tile kernel, validated
//     against the array Limits (cells, cell-memory words, queue
//     depth).
//
//   - The array farm (farm.go): Run dispatches the plan's tiles over N
//     worker goroutines (one per simulated array) behind a work queue,
//     with the next tiles' inputs staged while current tiles run
//     (double-buffered host I/O), per-tile deadlines, bounded livelock
//     retries, and a typed per-tile error that fails the job without
//     hanging the farm.  Tiles of one job share one kernel, so an array
//     may be handed a batch of first attempts to run in one call
//     (Config.Batch); a batch that fails re-runs tile by tile.  Per-tile
//     run profiles aggregate into a fabric-level Stats.
package fabric

import (
	"fmt"

	"warp/internal/mcode"
)

// Limits are the single-array resource bounds a plan is sized against.
type Limits struct {
	// Cells is the array size the tile kernel was compiled for.
	Cells int
	// CellMemWords is the per-cell data memory budget in words
	// (default mcode.MemWords, 4K).
	CellMemWords int
	// QueueDepth is the per-channel hardware queue capacity in words
	// (default mcode.QueueDepth).  The compiler proves every kernel's
	// peak occupancy against this bound; the planner re-checks the
	// claim it is handed.
	QueueDepth int
}

// DefaultLimits returns the hardware limits of one Warp array with the
// given cell count.
func DefaultLimits(cells int) Limits {
	return Limits{Cells: cells, CellMemWords: mcode.MemWords, QueueDepth: mcode.QueueDepth}
}

func (l Limits) validate() error {
	if l.Cells < 1 {
		return fmt.Errorf("fabric: limits: %d cells", l.Cells)
	}
	if l.CellMemWords < 1 {
		return fmt.Errorf("fabric: limits: %d cell-memory words", l.CellMemWords)
	}
	if l.QueueDepth < 1 {
		return fmt.Errorf("fabric: limits: queue depth %d", l.QueueDepth)
	}
	return nil
}

// Param is one tile-kernel parameter as the planner sees it.
type Param struct {
	Name string
	Size int // scalar words
}

// TileProgram describes the compiled array-sized kernel tiles run on:
// its array geometry and its parameters (inputs in declaration order,
// plus the single output).  The planner derives the tile shape from
// the parameter sizes and keys each tile's input slices by these
// names, so the same staged maps feed the kernel's Run unchanged.
type TileProgram struct {
	Cells int
	In    []Param
	Out   Param
}

// Matmul is an oversized matrix product C = A×B: A is m×k, B is k×n,
// row-major.  It is oversized whenever its one-array W2 instantiation
// would need more than the array's cells (k rows of B, one per cell)
// or more than the cell memory (n words of B row per cell).
type Matmul struct {
	M, K, N int
	A, B    []float64
}

func (p Matmul) validate() error {
	if p.M < 1 || p.K < 1 || p.N < 1 {
		return fmt.Errorf("fabric: matmul dimensions %dx%dx%d", p.M, p.K, p.N)
	}
	if len(p.A) != p.M*p.K {
		return fmt.Errorf("fabric: matmul A has %d elements, want %d (%dx%d)", len(p.A), p.M*p.K, p.M, p.K)
	}
	if len(p.B) != p.K*p.N {
		return fmt.Errorf("fabric: matmul B has %d elements, want %d (%dx%d)", len(p.B), p.K*p.N, p.K, p.N)
	}
	return nil
}

// Conv1D is an oversized 1-dimensional convolution: out[i] =
// Σ_j Kernel[j]·X[i+j], valid for i in [0, len(X)−len(Kernel)].
type Conv1D struct {
	Kernel []float64
	X      []float64
}

func (p Conv1D) validate() error {
	if len(p.Kernel) < 2 {
		return fmt.Errorf("fabric: conv1d kernel of %d weights", len(p.Kernel))
	}
	if len(p.X) < len(p.Kernel) {
		return fmt.Errorf("fabric: conv1d signal of %d points is shorter than the %d-weight kernel",
			len(p.X), len(p.Kernel))
	}
	return nil
}
