package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"warp/internal/obs"
	"warp/internal/prof"
	"warp/internal/sim"
)

// RunTileFunc executes one tile on one simulated array: it receives
// the tile and its staged input arrays and returns the tile's output
// array (the kernel's out parameter) plus the run's profile.  The farm
// calls it from several goroutines at once, one per array.
type RunTileFunc func(ctx context.Context, t Tile, inputs map[string][]float64) ([]float64, TileStats, error)

// RunBatchFunc executes several tiles of one job in one call — they share
// one kernel, so an executor can walk it once for all of them — and returns
// each tile's output and stats, in order, or one error for the whole batch.
type RunBatchFunc func(ctx context.Context, tiles []Tile, inputs []map[string][]float64) ([][]float64, []TileStats, error)

// maxBatch is the most tiles one batch holds.  Measured on the 10-cell
// matmul and conv1d(9,512) kernels, a tile of a 32-wide walk costs an
// eighth to a thirteenth of a walk of its own on the fast executor and a
// fourteenth to an eighteenth on the simulator.  128 wide cuts that by
// at most another 45 %, but a failed batch reruns every tile of it alone,
// and a 128-wide simulator walk of the matmul kernel fills the driver's
// 4 MB.
const maxBatch = 32

// TileStats is one tile run's profile contribution.
type TileStats struct {
	Cycles int64
	// Backend names the executor that ran the tile ("sim" or "fast");
	// every tile of one job uses the same backend, surfaced as
	// Stats.Backend.
	Backend string
	Summary obs.Summary
	// Source is the tile run's source-line cycle profile; non-nil only
	// on profiled runs.  The farm merges every tile's profile into
	// Stats.Source.
	Source *prof.SourceProfile
	// Decision is the tile run's backend decision audit, as stamped by
	// the driver.  Tiles of one job share one compiled program, so every
	// tile decides alike and the farm builds the job's Stats.Decision from
	// the first one to complete.
	Decision *obs.Decision
}

// Config sizes and paces the farm.
type Config struct {
	// Arrays is how many simulator instances run tiles concurrently
	// (minimum 1).  Run never goes wider than the plan has tiles.
	Arrays int
	// Deadline bounds each tile attempt (0 = none beyond the parent
	// context).
	Deadline time.Duration
	// Retries is how many additional attempts a retryable tile failure
	// (simulator livelock or a per-tile deadline hit, see retryable)
	// gets before the job fails with a *TileError.
	Retries int
	// Batch, when non-nil, runs the tiles' first attempts several at a
	// time: an even share of the plan per array, at most maxBatch.  A
	// batch is only a faster way to the same results: if it fails for any
	// reason (a fault in one tile, the deadline, a cancelled attempt) its
	// tiles go through the per-tile function one by one, which alone
	// accounts for attempts, retries, deadlines and errors.
	Batch RunBatchFunc
	// Progress, when non-nil, receives one update per completed tile
	// (TilesDone/Tiles plus aggregate cycles so far).  Updates are
	// delivered from the farm's single result-collection loop, so the
	// callback never runs concurrently with itself.
	Progress obs.ProgressFunc
}

// TileError is the structured per-tile failure that fails a job: which
// tile, after how many attempts, wrapping the final underlying error.
type TileError struct {
	Tile     int
	Attempts int
	Err      error
}

func (e *TileError) Error() string {
	return fmt.Sprintf("fabric: tile %d failed after %d attempt(s): %v", e.Tile, e.Attempts, e.Err)
}

func (e *TileError) Unwrap() error { return e.Err }

// Stats is the fabric-level aggregation of a job's per-tile profiles.
type Stats struct {
	Arrays     int // farm width used: Config.Arrays, at most Tiles
	Tiles      int // planned tiles
	Dispatched int // tile attempts started (retries included)
	Retried    int // attempts beyond each tile's first
	Failed     int // tiles that exhausted their attempts
	// Batches counts Config.Batch calls, BatchFallbacks those that failed
	// and sent their tiles down the per-tile path.
	Batches, BatchFallbacks int

	// AggregateCycles is the summed machine time of every completed
	// tile — what one array would spend running the job serially.
	AggregateCycles int64
	// MakespanCycles is the modeled machine time of the N-array job:
	// the per-tile cycle counts list-scheduled onto Arrays arrays in
	// plan order, whatever order the tiles completed in.  Both counts are
	// exact outputs of the deterministic simulator, so Speedup =
	// Aggregate/Makespan is a deterministic, host-independent scaling
	// measure (wall clock, recorded below, additionally depends on how
	// many host CPUs back the goroutines).
	MakespanCycles int64
	// Speedup is AggregateCycles/MakespanCycles — the modeled
	// machine-time speedup of this farm over a single array.
	Speedup float64

	// StagedWords counts host words sliced into tile input buffers —
	// the double-buffered host I/O traffic.
	StagedWords int64

	// Profile aggregates over completed tiles (utilizations are
	// cycle-weighted).
	PeakQueue   int
	PeakQueueAt string
	AddUtil     float64
	MulUtil     float64

	// Source is the job-wide source-line cycle profile: every tile's
	// exact per-line attribution merged (line and stack counters sum;
	// Cycles is the aggregate machine time).  Non-nil only when the
	// tiles ran with profiling enabled.
	Source *prof.SourceProfile

	// WallNS is the job's host wall-clock time.
	WallNS int64

	// Backend names the executor the tiles ran on ("sim" or "fast" —
	// uniform across a job, taken from the completed tiles).
	Backend string

	// Decision is the job's backend decision audit: a copy of the first
	// completed tile's decision with ActualWallNS set to WallNS.  Its
	// cycle and operation counts stay per tile (what the executor counts
	// for one tile); nil when no tile completed.
	Decision *obs.Decision
}

// stagedBatch is one unit of queued work: consecutive tiles of the plan
// plus their pre-sliced inputs.
type stagedBatch struct {
	tiles  []Tile
	inputs []map[string][]float64
}

// tileResult is what a worker reports back for one tile.
type tileResult struct {
	id      int
	out     []float64
	stats   TileStats
	retried int
	err     error
}

// retryable retries simulator livelock and per-tile deadline
// hits — the failure modes a fresh attempt (or a less loaded host) can
// clear — and nothing else.
func retryable(err error) bool {
	return errors.Is(err, sim.ErrLivelock) || errors.Is(err, context.DeadlineExceeded)
}

// Run executes the plan on the farm: tiles are staged one slice (with
// Config.Batch, one batch) ahead per array (double-buffered host I/O),
// dispatched to Arrays worker goroutines, and stitched in plan order
// once every tile has completed.  The first tile to exhaust its attempts cancels the rest
// and fails the job with its *TileError; the farm always drains its
// workers before returning, so a failed job never leaks goroutines.
func Run(ctx context.Context, pl *Plan, cfg Config, run RunTileFunc) ([]float64, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Arrays may come straight off a request.  A farm wider than the
	// plan cannot schedule differently — the extra arrays never get a
	// tile — so the width, which sizes the goroutines, both channels and
	// the makespan model, stops at the tile count.
	if cfg.Arrays > len(pl.Tiles) {
		cfg.Arrays = len(pl.Tiles)
	}
	if cfg.Arrays < 1 {
		cfg.Arrays = 1
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	width := 1
	if cfg.Batch != nil {
		width = min(maxBatch, (len(pl.Tiles)+cfg.Arrays-1)/cfg.Arrays)
	}

	// Stage tiles ahead of the workers: the channel buffer holds one
	// pre-sliced batch per array, so while array i simulates its tiles
	// the next ones' input is already in host memory.
	staged := make(chan stagedBatch, cfg.Arrays)
	var stagedWords atomic.Int64
	go func() {
		defer close(staged)
		for lo := 0; lo < len(pl.Tiles); lo += width {
			b := stagedBatch{tiles: pl.Tiles[lo:min(lo+width, len(pl.Tiles))], inputs: make([]map[string][]float64, 0, width)}
			for _, t := range b.tiles {
				b.inputs = append(b.inputs, pl.Inputs(t))
				stagedWords.Add(int64(pl.TileIn))
			}
			select {
			case staged <- b:
			case <-ctx.Done():
				return
			}
		}
	}()

	results := make(chan tileResult, cfg.Arrays)
	var batches, fallbacks atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < cfg.Arrays; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range staged {
				if len(b.tiles) > 1 && ctx.Err() == nil {
					batches.Add(1)
					if runBatch(ctx, b, cfg, results) {
						continue
					}
					fallbacks.Add(1)
				}
				for i, t := range b.tiles {
					if ctx.Err() != nil {
						// The job is already failing or cancelled: drain the
						// queue without simulating so the stager can finish.
						break
					}
					results <- runTile(ctx, t, b.inputs[i], cfg, run)
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	stats := &Stats{Arrays: cfg.Arrays, Tiles: len(pl.Tiles)}
	tileOut := make([][]float64, len(pl.Tiles))
	cycles := make([]int64, len(pl.Tiles)) // by tile ID: the makespan is a function of the plan
	done := 0
	var jobErr error
	var cycleSum float64 // utilization weights
	for r := range results {
		stats.Dispatched += 1 + r.retried
		stats.Retried += r.retried
		if r.err != nil {
			stats.Failed++
			// Keep the most informative failure: a tile's own error
			// beats the cascade of context-cancelled siblings.
			var te *TileError
			if jobErr == nil || (errors.As(r.err, &te) && !isTileError(jobErr)) {
				jobErr = r.err
			}
			cancel()
			continue
		}
		tileOut[r.id] = r.out
		cycles[r.id] = r.stats.Cycles
		done++
		stats.Backend = r.stats.Backend
		if stats.Decision == nil && r.stats.Decision != nil {
			d := *r.stats.Decision
			stats.Decision = &d
		}
		stats.AggregateCycles += r.stats.Cycles
		w := float64(r.stats.Cycles)
		stats.AddUtil += w * r.stats.Summary.AddUtil
		stats.MulUtil += w * r.stats.Summary.MulUtil
		cycleSum += w
		if r.stats.Summary.PeakQueue > stats.PeakQueue {
			stats.PeakQueue = r.stats.Summary.PeakQueue
			stats.PeakQueueAt = r.stats.Summary.PeakQueueAt
		}
		if r.stats.Source != nil {
			if stats.Source == nil {
				stats.Source = &prof.SourceProfile{}
			}
			stats.Source.Merge(r.stats.Source)
		}
		if cfg.Progress != nil {
			cfg.Progress(obs.ProgressUpdate{
				Cycles:    stats.AggregateCycles,
				TilesDone: done,
				Tiles:     stats.Tiles,
			})
		}
	}
	stats.StagedWords = stagedWords.Load()
	stats.Batches, stats.BatchFallbacks = int(batches.Load()), int(fallbacks.Load())
	if cycleSum > 0 {
		stats.AddUtil /= cycleSum
		stats.MulUtil /= cycleSum
	}
	stats.MakespanCycles = modelMakespan(cycles, cfg.Arrays)
	if stats.MakespanCycles > 0 {
		stats.Speedup = float64(stats.AggregateCycles) / float64(stats.MakespanCycles)
	}
	stats.WallNS = int64(time.Since(start))
	if stats.Decision != nil {
		stats.Decision.ActualWallNS = stats.WallNS
	}
	if jobErr != nil {
		return nil, stats, jobErr
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	out, err := pl.Assemble(tileOut)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// runBatch gives a staged batch its one attempt at running together,
// inside one tile attempt's deadline (every tile of a batch that makes it
// met its own), and reports the tiles' results if it succeeds.
func runBatch(ctx context.Context, b stagedBatch, cfg Config, results chan<- tileResult) bool {
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
	}
	outs, ts, err := cfg.Batch(ctx, b.tiles, b.inputs)
	if err != nil || len(outs) != len(b.tiles) || len(ts) != len(b.tiles) {
		return false
	}
	for i, t := range b.tiles {
		results <- tileResult{id: t.ID, out: outs[i], stats: ts[i]}
	}
	return true
}

// runTile runs one staged tile with the per-attempt deadline and the
// bounded retry policy.
func runTile(ctx context.Context, t Tile, inputs map[string][]float64, cfg Config, run RunTileFunc) tileResult {
	res := tileResult{id: t.ID}
	attempts := 1 + cfg.Retries
	for a := 1; a <= attempts; a++ {
		if a > 1 {
			res.retried++
		}
		actx, acancel := ctx, context.CancelFunc(func() {})
		if cfg.Deadline > 0 {
			actx, acancel = context.WithTimeout(ctx, cfg.Deadline)
		}
		out, ts, err := run(actx, t, inputs)
		acancel()
		if err == nil {
			res.out, res.stats = out, ts
			return res
		}
		// If the whole job is being torn down, report the parent
		// cancellation rather than blaming this tile.
		if ctx.Err() != nil {
			res.err = ctx.Err()
			return res
		}
		if a < attempts && retryable(err) {
			continue
		}
		res.err = &TileError{Tile: t.ID, Attempts: a, Err: err}
		return res
	}
	return res // unreachable: the loop always returns
}

func isTileError(err error) bool {
	var te *TileError
	return errors.As(err, &te)
}

// modelMakespan list-schedules the tiles' cycle counts, in plan order
// (a tile that did not complete counts nothing), onto n arrays — each
// tile goes to the least-loaded array, ties to the lowest index — and
// returns the resulting makespan.  The schedule
// (and so the makespan) is a deterministic function of the plan,
// unlike the racy goroutine assignment of the real dispatch, which
// makes it safe to pin in benchmark baselines.
func modelMakespan(cycles []int64, n int) int64 {
	if n < 1 {
		n = 1
	}
	load := make([]int64, n)
	for _, c := range cycles {
		best := 0
		for i := 1; i < n; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		load[best] += c
	}
	var max int64
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}
