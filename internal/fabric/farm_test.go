package fabric

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warp/internal/prof"
	"warp/internal/sim"
	"warp/internal/workloads"
)

// stressPlan builds a plan with many more tiles than arrays.
func stressPlan(t *testing.T, m, k, n, tile int) *Plan {
	t.Helper()
	a, b := workloads.LargeMatmulData(m, k, n, 9)
	pl, err := PlanMatmul(Matmul{M: m, K: k, N: n, A: a, B: b}, mmProg(tile), DefaultLimits(tile))
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// batchOver makes a batch function of a per-tile fake, behaving as an
// executor that runs a batch's tiles together does: fault is asked about
// every tile first and its error fails the batch as a whole, before any
// tile has run (so the fake's own per-attempt state is untouched);
// otherwise every tile runs.
func batchOver(run RunTileFunc, fault func(context.Context, Tile) error) RunBatchFunc {
	return func(ctx context.Context, tiles []Tile, inputs []map[string][]float64) ([][]float64, []TileStats, error) {
		for _, tl := range tiles {
			if err := fault(ctx, tl); err != nil {
				return nil, nil, err
			}
		}
		outs, stats := make([][]float64, len(tiles)), make([]TileStats, len(tiles))
		for i, tl := range tiles {
			var err error
			if outs[i], stats[i], err = run(ctx, tl, inputs[i]); err != nil {
				return nil, nil, err
			}
		}
		return outs, stats, nil
	}
}

// failing is a batchOver fault: the tile with this ID fails its batch.
func failing(id int, err error) func(context.Context, Tile) error {
	return func(_ context.Context, tl Tile) error {
		if tl.ID == id {
			return err
		}
		return nil
	}
}

// eachPath runs a farm test on the per-tile path and again for a Config
// with a batch function installed: whatever the batches do, the job's
// outcome — outputs, counters, the error — must be the per-tile path's.
func eachPath(t *testing.T, test func(t *testing.T, batched bool)) {
	t.Run("per-tile", func(t *testing.T) { test(t, false) })
	t.Run("batched", func(t *testing.T) { test(t, true) })
}

// TestFarmStress drives many tiles through few arrays with the race
// detector's eyes on the shared state: the staging channel, the stats
// aggregation, and the output buffer.
func TestFarmStress(t *testing.T) {
	pl := stressPlan(t, 24, 24, 24, 2) // 12³ = 1728 tiles
	var inFlight, peak atomic.Int64
	run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		return fakeMatmulRun(100)(ctx, tl, in)
	}
	out, stats, err := Run(context.Background(), pl, Config{Arrays: 3}, run)
	if err != nil {
		t.Fatal(err)
	}
	want := workloads.MatmulRectRef(pl.mm.A, pl.mm.B, 24, 24, 24)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("c[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if stats.Dispatched != 1728 || stats.Retried != 0 || stats.Failed != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("%d tiles ran concurrently on a 3-array farm", p)
	}
	if stats.MakespanCycles != 1728/3*100 {
		t.Fatalf("makespan %d", stats.MakespanCycles)
	}
}

// TestFarmLivelockRetryThenSucceed injects a livelock that clears
// after two attempts: the farm must retry within the bound and finish
// the job cleanly.
func TestFarmLivelockRetryThenSucceed(t *testing.T) {
	eachPath(t, func(t *testing.T, batched bool) {
		pl := stressPlan(t, 8, 8, 8, 4)
		const victim = 5
		var mu sync.Mutex
		failures := 2
		run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
			if tl.ID == victim {
				mu.Lock()
				retry := failures > 0
				if retry {
					failures--
				}
				mu.Unlock()
				if retry {
					return nil, TileStats{}, sim.ErrLivelock
				}
			}
			return fakeMatmulRun(100)(ctx, tl, in)
		}
		cfg := Config{Arrays: 2, Retries: 2}
		if batched {
			// The victim's lane livelocks its batch of four; the batch's
			// tiles then go one by one, the victim through its two retries.
			cfg.Batch = batchOver(run, failing(victim, sim.ErrLivelock))
		}
		out, stats, err := Run(context.Background(), pl, cfg, run)
		if err != nil {
			t.Fatal(err)
		}
		want := workloads.MatmulRectRef(pl.mm.A, pl.mm.B, 8, 8, 8)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("c[%d] = %v, want %v", i, out[i], want[i])
			}
		}
		if stats.Retried != 2 || stats.Failed != 0 {
			t.Fatalf("retried %d failed %d, want 2 retries and no failures", stats.Retried, stats.Failed)
		}
		if stats.Dispatched != len(pl.Tiles)+2 {
			t.Fatalf("dispatched %d, want %d", stats.Dispatched, len(pl.Tiles)+2)
		}
		if batched && (stats.Batches != 2 || stats.BatchFallbacks != 1) {
			t.Fatalf("%d batches, %d fallbacks, want 2 and the victim's 1", stats.Batches, stats.BatchFallbacks)
		}
	})
}

// TestFarmLivelockRetryThenFail injects a persistent livelock: the
// farm must exhaust the bounded attempts, fail the job with a typed
// per-tile error naming the tile and attempt count, and return without
// hanging.
func TestFarmLivelockRetryThenFail(t *testing.T) {
	eachPath(t, func(t *testing.T, batched bool) {
		pl := stressPlan(t, 8, 8, 8, 4)
		const victim = 3
		run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
			if tl.ID == victim {
				return nil, TileStats{}, sim.ErrLivelock
			}
			return fakeMatmulRun(100)(ctx, tl, in)
		}
		cfg := Config{Arrays: 2, Retries: 2}
		if batched {
			cfg.Batch = batchOver(run, failing(victim, sim.ErrLivelock))
		}
		done := make(chan struct{})
		var out []float64
		var stats *Stats
		var err error
		go func() {
			defer close(done)
			out, stats, err = Run(context.Background(), pl, cfg, run)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("farm hung on a persistently livelocked tile")
		}
		if out != nil {
			t.Fatal("failed job returned an output")
		}
		var te *TileError
		if !errors.As(err, &te) {
			t.Fatalf("job error %v (%T), want *TileError", err, err)
		}
		if te.Tile != victim || te.Attempts != 3 {
			t.Fatalf("TileError{Tile: %d, Attempts: %d}, want tile %d after 3 attempts", te.Tile, te.Attempts, victim)
		}
		if !errors.Is(err, sim.ErrLivelock) {
			t.Fatalf("TileError does not unwrap to sim.ErrLivelock: %v", err)
		}
		if stats.Failed < 1 || stats.Retried < 2 {
			t.Fatalf("stats %+v: want the victim's 2 retries and its failure recorded", stats)
		}
		if batched && stats.BatchFallbacks < 1 {
			t.Fatalf("stats %+v: the victim's batch did not fall back", stats)
		}
	})
}

// TestFarmNonRetryableFailsFast: an error outside the retry policy
// must fail the tile on the first attempt.
func TestFarmNonRetryableFailsFast(t *testing.T) {
	eachPath(t, func(t *testing.T, batched bool) {
		pl := stressPlan(t, 8, 8, 8, 4)
		boom := errors.New("cell 3 microcode fault")
		run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
			if tl.ID == 0 {
				return nil, TileStats{}, boom
			}
			return fakeMatmulRun(100)(ctx, tl, in)
		}
		cfg := Config{Arrays: 2, Retries: 5}
		if batched {
			cfg.Batch = batchOver(run, failing(0, boom))
		}
		_, stats, err := Run(context.Background(), pl, cfg, run)
		var te *TileError
		if !errors.As(err, &te) || te.Attempts != 1 || !errors.Is(err, boom) {
			t.Fatalf("err %v, want tile 0's first-attempt TileError wrapping the fault", err)
		}
		if stats.Retried != 0 {
			t.Fatalf("non-retryable error was retried %d times", stats.Retried)
		}
	})
}

// TestFarmDeadline: a tile that outlives its per-attempt deadline is
// retried (deadline hits are retryable by default) and then fails as a
// TileError wrapping context.DeadlineExceeded.
func TestFarmDeadline(t *testing.T) {
	eachPath(t, func(t *testing.T, batched bool) {
		pl := stressPlan(t, 4, 4, 4, 2)
		const victim = 2
		stuck := func(ctx context.Context, tl Tile) error {
			if tl.ID != victim {
				return nil
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(10 * time.Second):
				t.Error("tile attempt was never cancelled")
				return errors.New("unreachable")
			}
		}
		run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
			if err := stuck(ctx, tl); err != nil {
				return nil, TileStats{}, err
			}
			return fakeMatmulRun(100)(ctx, tl, in)
		}
		cfg := Config{Arrays: 2, Deadline: 20 * time.Millisecond, Retries: 1}
		if batched {
			// The victim's batch sits out one deadline of its own first.
			cfg.Batch = batchOver(run, stuck)
		}
		_, stats, err := Run(context.Background(), pl, cfg, run)
		var te *TileError
		if !errors.As(err, &te) {
			t.Fatalf("err %v (%T), want *TileError", err, err)
		}
		if te.Tile != victim || te.Attempts != 2 || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("TileError %+v (%v), want tile %d failing its deadline twice", te, err, victim)
		}
		if stats.Retried != 1 {
			t.Fatalf("retried %d, want 1", stats.Retried)
		}
		if batched && stats.BatchFallbacks < 1 {
			t.Fatalf("stats %+v: the victim's batch did not fall back", stats)
		}
	})
}

// TestFarmParentCancel: cancelling the job context mid-run surfaces
// the cancellation (not a TileError) and the farm still drains.
func TestFarmParentCancel(t *testing.T) {
	eachPath(t, func(t *testing.T, batched bool) {
		pl := stressPlan(t, 16, 16, 16, 2)
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		run := func(c context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
			if ran.Add(1) == 10 {
				cancel()
			}
			select {
			case <-c.Done():
				return nil, TileStats{}, c.Err()
			default:
			}
			return fakeMatmulRun(100)(c, tl, in)
		}
		cfg := Config{Arrays: 2}
		if batched {
			cfg.Batch = batchOver(run, failing(-1, nil)) // the cancellation lands inside a batch
		}
		out, _, err := Run(ctx, pl, cfg, run)
		if out != nil {
			t.Fatal("cancelled job returned an output")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
		if isTileError(err) {
			t.Fatalf("parent cancellation was blamed on a tile: %v", err)
		}
	})
}

// TestStitchOrderIndependence is the tile-stitch property test: the
// same plan run under three different completion-order schedules (per
// tile jitter keyed off a run seed) must produce bit-identical output.
func TestStitchOrderIndependence(t *testing.T) {
	pl := stressPlan(t, 12, 12, 12, 3) // 64 tiles
	want := workloads.MatmulRectRef(pl.mm.A, pl.mm.B, 12, 12, 12)
	var first []float64
	for seed := 0; seed < 3; seed++ {
		run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
			// Deterministic per-(seed, tile) jitter permutes which array
			// finishes which tile first across the three runs.
			d := time.Duration((tl.ID*7+seed*13)%5) * time.Millisecond
			select {
			case <-ctx.Done():
				return nil, TileStats{}, ctx.Err()
			case <-time.After(d):
			}
			return fakeMatmulRun(100)(ctx, tl, in)
		}
		out, _, err := Run(context.Background(), pl, Config{Arrays: 4}, run)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("seed %d: c[%d] = %v, want %v", seed, i, out[i], want[i])
			}
		}
		if first == nil {
			first = out
			continue
		}
		for i := range first {
			if out[i] != first[i] {
				t.Fatalf("seed %d: c[%d] = %v differs from first run's %v", seed, i, out[i], first[i])
			}
		}
	}
}

// TestArraysBeyondTiles: Config.Arrays can come off a request unbounded,
// and the farm must never be wider than its plan.  A 4-tile plan asked
// for 1<<30 arrays runs exactly as it does on 4 — same outputs, stats
// and makespan — on as many goroutines: every tile holds its array until
// all four are in flight, and the process's goroutine count is read then.
func TestArraysBeyondTiles(t *testing.T) {
	pl := stressPlan(t, 4, 2, 4, 2)
	if len(pl.Tiles) != 4 {
		t.Fatalf("plan has %d tiles, want 4", len(pl.Tiles))
	}
	farm := func(arrays int) ([]float64, *Stats, int) {
		before := runtime.NumGoroutine()
		var inFlight sync.WaitGroup
		inFlight.Add(len(pl.Tiles))
		var goroutines atomic.Int64
		run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
			inFlight.Done()
			inFlight.Wait()
			goroutines.Store(int64(runtime.NumGoroutine()))
			return fakeMatmulRun(100+int64(tl.ID))(ctx, tl, in)
		}
		// With an array for every tile there is nothing to batch: the batch
		// function must never be called.
		batch := func(context.Context, []Tile, []map[string][]float64) ([][]float64, []TileStats, error) {
			t.Error("a one-tile share of the plan was run as a batch")
			return nil, nil, errors.New("unreachable")
		}
		out, stats, err := Run(context.Background(), pl, Config{Arrays: arrays, Batch: batch}, run)
		if err != nil {
			t.Fatalf("arrays=%d: %v", arrays, err)
		}
		if stats.Batches != 0 || stats.BatchFallbacks != 0 {
			t.Errorf("arrays=%d: %d batches, %d fallbacks", arrays, stats.Batches, stats.BatchFallbacks)
		}
		return out, stats, int(goroutines.Load()) - before
	}
	want, wantStats, _ := farm(4)
	got, gotStats, extra := farm(1 << 30)
	if !reflect.DeepEqual(got, want) {
		t.Error("outputs differ from the 4-array run")
	}
	if gotStats.Arrays != 4 || gotStats.MakespanCycles != wantStats.MakespanCycles ||
		gotStats.AggregateCycles != wantStats.AggregateCycles || gotStats.Dispatched != wantStats.Dispatched {
		t.Errorf("stats %+v, the 4-array run had %+v", gotStats, wantStats)
	}
	// Four workers, the stager and the closer.
	if extra > 6 {
		t.Errorf("%d goroutines beyond the caller's for a 4-tile plan, want at most 6", extra)
	}
}

// TestMakespanFollowsPlanOrder: the modeled makespan list-schedules the
// tiles' cycle counts in plan order, so it is a function of the plan —
// with tiles of unequal length finishing in a different order every run
// (per-tile jitter, as in TestStitchOrderIndependence) it never moves.
// Scheduled in completion order, as it once was, it does.
func TestMakespanFollowsPlanOrder(t *testing.T) {
	pl := stressPlan(t, 12, 12, 12, 3) // 64 tiles
	cyclesOf := func(id int) int64 { return 100 + int64(id*37%11)*40 }
	inPlanOrder := make([]int64, len(pl.Tiles))
	for i, tl := range pl.Tiles {
		inPlanOrder[i] = cyclesOf(tl.ID)
	}
	want := modelMakespan(inPlanOrder, 4)
	for seed := 0; seed < 4; seed++ {
		run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
			time.Sleep(time.Duration((tl.ID*7+seed*13)%5) * time.Millisecond)
			return fakeMatmulRun(cyclesOf(tl.ID))(ctx, tl, in)
		}
		_, stats, err := Run(context.Background(), pl, Config{Arrays: 4}, run)
		if err != nil {
			t.Fatal(err)
		}
		if stats.MakespanCycles != want {
			t.Errorf("seed %d: makespan %d, the plan's is %d", seed, stats.MakespanCycles, want)
		}
	}
}

// TestFarmBatchedMatchesPerTile: batches that do not divide the plan
// (27 tiles on two arrays go 14 and 13; 64 on three go 22, 22, 20; 1728
// go 54 batches of 32) and a plan with fewer tiles than arrays (nothing
// to batch) stitch the per-tile farm's output and count its statistics,
// wall time and the batch counters aside.
func TestFarmBatchedMatchesPerTile(t *testing.T) {
	for _, tc := range []struct{ n, tile, arrays, batches int }{
		{6, 2, 2, 2}, {12, 3, 3, 3}, {24, 2, 3, 54}, {4, 2, 100, 0},
	} {
		pl := stressPlan(t, tc.n, tc.n, tc.n, tc.tile)
		run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
			return fakeMatmulRun(100+int64(tl.ID%7))(ctx, tl, in)
		}
		want, wantStats, err := Run(context.Background(), pl, Config{Arrays: tc.arrays}, run)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := Run(context.Background(), pl, Config{Arrays: tc.arrays, Batch: batchOver(run, failing(-1, nil))}, run)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d tiles on %d arrays: batched output differs from the per-tile farm's", len(pl.Tiles), tc.arrays)
		}
		if stats.Batches != tc.batches || stats.BatchFallbacks != 0 || wantStats.Batches != 0 {
			t.Errorf("%d tiles on %d arrays: %d batches, %d fallbacks, want %d, 0", len(pl.Tiles), tc.arrays, stats.Batches, stats.BatchFallbacks, tc.batches)
		}
		stats.WallNS, wantStats.WallNS, stats.Batches = 0, 0, 0
		if !reflect.DeepEqual(stats, wantStats) {
			t.Errorf("%d tiles on %d arrays: batched statistics %+v, per-tile %+v", len(pl.Tiles), tc.arrays, stats, wantStats)
		}
	}
}

// TestModelMakespan pins the deterministic list-scheduler.
func TestModelMakespan(t *testing.T) {
	cases := []struct {
		cycles []int64
		n      int
		want   int64
	}{
		{nil, 4, 0},
		{[]int64{10, 10, 10, 10}, 2, 20},
		{[]int64{10, 10, 10}, 4, 10},
		{[]int64{5, 5, 5, 9}, 2, 14}, // 5+5 vs 5+9 → greedy puts 9 on the lighter array
		{[]int64{7}, 0, 7},           // n clamps to 1
	}
	for _, c := range cases {
		if got := modelMakespan(c.cycles, c.n); got != c.want {
			t.Fatalf("modelMakespan(%v, %d) = %d, want %d", c.cycles, c.n, got, c.want)
		}
	}
}

// TestFarmSourceAggregation checks Stats.Source: every profiled tile's
// exact per-line attribution merges into one job-wide profile whose
// counters are the sums, regardless of how many arrays raced.
func TestFarmSourceAggregation(t *testing.T) {
	pl := stressPlan(t, 8, 8, 8, 2) // 64 tiles
	const perTile = 100
	run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
		out, ts, err := fakeMatmulRun(perTile)(ctx, tl, in)
		if err != nil {
			return nil, ts, err
		}
		ts.Source = &prof.SourceProfile{
			Module: "mm", Cells: 2, Cycles: perTile,
			Busy: 60, Starved: 10, Bubble: 5,
			Lines: []prof.LineStat{
				{Line: 0, Text: "(preamble/pad)", Bubble: 5},
				{Line: 4, Text: "c[i] := c[i] + a*b;", Busy: 60, Starved: 10},
			},
			Stacks: []prof.StackStat{
				{Frames: []string{"mm", "(preamble/pad)"}, Cycles: 5},
				{Frames: []string{"mm", "for i @3", "L4 c[i] := c[i] + a*b;"}, Cycles: 70},
			},
		}
		return out, ts, nil
	}
	_, stats, err := Run(context.Background(), pl, Config{Arrays: 4}, run)
	if err != nil {
		t.Fatal(err)
	}
	sp := stats.Source
	if sp == nil {
		t.Fatal("profiled tiles but Stats.Source is nil")
	}
	tiles := int64(stats.Tiles)
	if sp.Cycles != tiles*perTile {
		t.Errorf("aggregate cycles = %d, want %d", sp.Cycles, tiles*perTile)
	}
	if sp.Cycles != stats.AggregateCycles {
		t.Errorf("profile cycles %d != AggregateCycles %d", sp.Cycles, stats.AggregateCycles)
	}
	if sp.Attributed() != tiles*75 {
		t.Errorf("aggregate attributed = %d, want %d", sp.Attributed(), tiles*75)
	}
	if len(sp.Lines) != 2 || len(sp.Stacks) != 2 {
		t.Fatalf("merge duplicated entries: %d lines, %d stacks", len(sp.Lines), len(sp.Stacks))
	}
	if sp.Lines[1].Busy != tiles*60 || sp.Lines[1].Starved != tiles*10 {
		t.Errorf("line 4 counters = %+v", sp.Lines[1])
	}
	if sp.Cells != 2 {
		t.Errorf("cells = %d, want the per-tile max 2", sp.Cells)
	}

	// Unprofiled tiles leave Source nil.
	_, stats2, err := Run(context.Background(), pl, Config{Arrays: 4}, fakeMatmulRun(perTile))
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Source != nil {
		t.Error("unprofiled job grew a Source profile")
	}
}
