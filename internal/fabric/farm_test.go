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
	out, stats, err := Run(context.Background(), pl, Config{Arrays: 2, Retries: 2}, run)
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
}

// TestFarmLivelockRetryThenFail injects a persistent livelock: the
// farm must exhaust the bounded attempts, fail the job with a typed
// per-tile error naming the tile and attempt count, and return without
// hanging.
func TestFarmLivelockRetryThenFail(t *testing.T) {
	pl := stressPlan(t, 8, 8, 8, 4)
	const victim = 3
	run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
		if tl.ID == victim {
			return nil, TileStats{}, sim.ErrLivelock
		}
		return fakeMatmulRun(100)(ctx, tl, in)
	}
	done := make(chan struct{})
	var out []float64
	var stats *Stats
	var err error
	go func() {
		defer close(done)
		out, stats, err = Run(context.Background(), pl, Config{Arrays: 2, Retries: 2}, run)
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
}

// TestFarmNonRetryableFailsFast: an error outside the retry policy
// must fail the tile on the first attempt.
func TestFarmNonRetryableFailsFast(t *testing.T) {
	pl := stressPlan(t, 8, 8, 8, 4)
	boom := errors.New("cell 3 microcode fault")
	run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
		if tl.ID == 0 {
			return nil, TileStats{}, boom
		}
		return fakeMatmulRun(100)(ctx, tl, in)
	}
	_, stats, err := Run(context.Background(), pl, Config{Arrays: 2, Retries: 5}, run)
	var te *TileError
	if !errors.As(err, &te) || te.Attempts != 1 || !errors.Is(err, boom) {
		t.Fatalf("err %v, want tile 0's first-attempt TileError wrapping the fault", err)
	}
	if stats.Retried != 0 {
		t.Fatalf("non-retryable error was retried %d times", stats.Retried)
	}
}

// TestFarmDeadline: a tile that outlives its per-attempt deadline is
// retried (deadline hits are retryable by default) and then fails as a
// TileError wrapping context.DeadlineExceeded.
func TestFarmDeadline(t *testing.T) {
	pl := stressPlan(t, 4, 4, 4, 2)
	const victim = 2
	run := func(ctx context.Context, tl Tile, in map[string][]float64) ([]float64, TileStats, error) {
		if tl.ID == victim {
			select {
			case <-ctx.Done():
				return nil, TileStats{}, ctx.Err()
			case <-time.After(10 * time.Second):
				t.Error("tile attempt was never cancelled")
				return nil, TileStats{}, errors.New("unreachable")
			}
		}
		return fakeMatmulRun(100)(ctx, tl, in)
	}
	_, stats, err := Run(context.Background(), pl, Config{Arrays: 2, Deadline: 20 * time.Millisecond, Retries: 1}, run)
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
}

// TestFarmParentCancel: cancelling the job context mid-run surfaces
// the cancellation (not a TileError) and the farm still drains.
func TestFarmParentCancel(t *testing.T) {
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
	out, _, err := Run(ctx, pl, Config{Arrays: 2}, run)
	if out != nil {
		t.Fatal("cancelled job returned an output")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if isTileError(err) {
		t.Fatalf("parent cancellation was blamed on a tile: %v", err)
	}
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
		out, stats, err := Run(context.Background(), pl, Config{Arrays: arrays}, run)
		if err != nil {
			t.Fatalf("arrays=%d: %v", arrays, err)
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
