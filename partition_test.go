package warp_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"warp"
	"warp/internal/interp"
	"warp/internal/w2"
	"warp/internal/workloads"
)

// oracle runs a W2 source under the reference interpreter — the
// programmer's-model semantics of the full, un-partitioned problem,
// independent of the compiler and simulator.
func oracle(t *testing.T, src string, in map[string][]float64) map[string][]float64 {
	t.Helper()
	mod, err := w2.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := w2.Analyze(mod)
	if err != nil {
		t.Fatal(err)
	}
	out, err := interp.Run(info, in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunPartitionedMatmulOracle is the acceptance path: a 25×25×25
// matmul — too large for the ten-cell kernel in every dimension, and
// not a multiple of the tile side — partitioned across 4 arrays, each
// running the real cycle-accurate simulator, element-exact against the
// interpreter oracle evaluating the whole problem at once.
func TestRunPartitionedMatmulOracle(t *testing.T) {
	const m, k, n, tile = 25, 25, 25, 10
	prog, err := warp.Compile(workloads.Matmul(tile), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := workloads.LargeMatmulData(m, k, n, 17)
	out, stats, err := prog.RunPartitioned(warp.RunConfig{Arrays: 4}, warp.MatmulProblem(m, k, n, a, b))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, workloads.MatmulRect(m, k, n), map[string][]float64{"a": a, "bmat": b})["c"]
	got := out["c"]
	if len(got) != m*n {
		t.Fatalf("got %d output elements, want %d", len(got), m*n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("c[%d] = %v, oracle says %v", i, got[i], want[i])
		}
	}
	if stats.Tiles != 27 || stats.Failed != 0 { // ⌈25/10⌉³
		t.Fatalf("stats %+v, want 27 clean tiles", stats)
	}
	if stats.Arrays != 4 || stats.Speedup < 2 {
		t.Fatalf("modeled speedup %.2f on %d arrays, want ≥2 on 4", stats.Speedup, stats.Arrays)
	}
	if stats.AggregateCycles <= 0 || stats.MakespanCycles <= 0 || stats.AddUtil <= 0 {
		t.Fatalf("profile not aggregated: %+v", stats)
	}
}

// TestRunPartitionedConvOracle: a 300-point convolution through a
// 64-point-window kernel on 9 cells, haloed tiles across 4 arrays,
// bit-exact against the full-signal oracle.
func TestRunPartitionedConvOracle(t *testing.T) {
	const nx, kw, window = 300, 9, 64
	prog, err := warp.Compile(workloads.Conv1D(kw, window), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, w := workloads.LargeConv1DData(nx, kw, 23)
	out, stats, err := prog.RunPartitioned(warp.RunConfig{Arrays: 4}, warp.Conv1DProblem(w, x))
	if err != nil {
		t.Fatal(err)
	}
	// The full-problem oracle's first nx−kw+1 outputs are the valid
	// convolution; the partitioned run returns exactly those.
	want := oracle(t, workloads.Conv1D(kw, nx), map[string][]float64{"x": x, "w": w})["results"]
	got := out["results"]
	if len(got) != nx-kw+1 {
		t.Fatalf("got %d outputs, want %d", len(got), nx-kw+1)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("results[%d] = %v, oracle says %v", i, got[i], want[i])
		}
	}
	if stats.Failed != 0 || stats.Tiles < 4 {
		t.Fatalf("stats %+v", stats)
	}
}

// TestRunPartitionedCancel: a cancelled job context aborts the farm
// promptly with the context's error.
func TestRunPartitionedCancel(t *testing.T) {
	prog, err := warp.Compile(workloads.Matmul(4), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const d = 40
	a, b := workloads.LargeMatmulData(d, d, d, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, err = prog.RunPartitioned(warp.RunConfig{Context: ctx, Arrays: 2},
		warp.MatmulProblem(d, d, d, a, b))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancelled job did not abort promptly")
	}
}

// TestRunPartitionedZeroProblem: the zero Problem is rejected.
func TestRunPartitionedZeroProblem(t *testing.T) {
	prog, err := warp.Compile(workloads.Matmul(4), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prog.RunPartitioned(warp.RunConfig{}, warp.Problem{}); err == nil {
		t.Fatal("zero Problem accepted")
	}
}

// scrubFarm removes what legitimately differs between a batched farm and
// a per-tile one: wall time and the batch counters.
func scrubFarm(fs *warp.FabricStats) warp.FabricStats {
	c := *fs
	c.WallNS, c.Batches, c.BatchFallbacks = 0, 0, 0
	if c.Decision != nil {
		d := *c.Decision
		d.ActualWallNS, d.Batch = 0, 0
		c.Decision = &d
	}
	return c
}

// TestFarmBatchedMatchesPerTile is the fabric's differential seam on both
// backends (run it under -race): the same partitioned problem with the
// tiles' first attempts batched through one walk of the kernel — the fast
// plan's, or the simulated machine's ("-sim" jobs) — with every tile on
// the per-tile path, and as a whole in Go: stitched outputs
// element-exact, and the two farms' statistics equal field for field but
// for wall time and the batch counters.  The array counts make batches
// that do not divide the plan (64 tiles on 3 arrays go 22, 22, 20) and a
// farm wider than the plan, which has nothing to batch.
func TestFarmBatchedMatchesPerTile(t *testing.T) {
	mm, err := warp.Compile(workloads.Matmul(10), warp.Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := warp.Compile(workloads.Conv1D(9, 128), warp.Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	a, b := workloads.LargeMatmulData(35, 35, 35, 5) // quarter-integers: the tiled reduction is exact
	x, w := workloads.LargeConv1DData(3000, 9, 6)
	for _, job := range []struct {
		name    string
		backend string
		prog    *warp.Program
		prob    warp.Problem
		want    []float64
		tiles   int
	}{
		{"matmul35", warp.BackendFast, mm, warp.MatmulProblem(35, 35, 35, a, b), workloads.MatmulRectRef(a, b, 35, 35, 35), 64},
		{"conv3000", warp.BackendFast, cv, warp.Conv1DProblem(w, x), workloads.Conv1DRef(x, w), 25},
		{"matmul35-sim", warp.BackendSim, mm, warp.MatmulProblem(35, 35, 35, a, b), workloads.MatmulRectRef(a, b, 35, 35, 35), 64},
		{"conv3000-sim", warp.BackendSim, cv, warp.Conv1DProblem(w, x), workloads.Conv1DRef(x, w), 25},
	} {
		for _, arrays := range []int{1, 2, 3, 100} {
			t.Run(fmt.Sprintf("%s/arrays=%d", job.name, arrays), func(t *testing.T) {
				cfg := warp.RunConfig{Arrays: arrays, Backend: job.backend}
				out, batched, err := job.prog.RunPartitioned(cfg, job.prob)
				if err != nil {
					t.Fatal(err)
				}
				ref, perTile, err := job.prog.RunPartitionedPerTile(cfg, job.prob)
				if err != nil {
					t.Fatal(err)
				}
				for name, got := range out {
					if !reflect.DeepEqual(got, job.want) || !reflect.DeepEqual(ref[name], job.want) {
						t.Fatalf("%s: batched, per-tile and whole-problem outputs differ", name)
					}
				}
				if batched.Tiles != job.tiles || batched.Backend != job.backend || batched.Dispatched != job.tiles {
					t.Fatalf("batched farm: %+v, want %d tiles once each on the %s backend", batched, job.tiles, job.backend)
				}
				if got, want := scrubFarm(batched), scrubFarm(perTile); !reflect.DeepEqual(got, want) {
					t.Errorf("batched statistics %+v (decision %+v),\nper-tile %+v (decision %+v)", got, got.Decision, want, want.Decision)
				}
				width := min(32, (job.tiles+batched.Arrays-1)/batched.Arrays)
				wantBatches := 0
				if width > 1 {
					wantBatches = (job.tiles + width - 1) / width
				}
				if batched.Batches != wantBatches || batched.BatchFallbacks != 0 || perTile.Batches != 0 {
					t.Errorf("%d batches, %d fallbacks (per-tile farm: %d batches), want %d, 0 (0)",
						batched.Batches, batched.BatchFallbacks, perTile.Batches, wantBatches)
				}
				if wantBatches > 0 && (batched.Decision.Batch < 2 || perTile.Decision.Batch != 0) {
					t.Errorf("decisions record batch %d (per-tile farm %d)", batched.Decision.Batch, perTile.Decision.Batch)
				}
				if batched.Decision.ActualWallNS != batched.WallNS {
					t.Errorf("job decision wall %d, job wall %d", batched.Decision.ActualWallNS, batched.WallNS)
				}
			})
		}
	}
}

// TestFarmBatchEnvelopeFallback: a kernel whose memory fields name other
// words than the IU sends — every field moved 1000 words up, the IU's
// addresses unchanged, so a run alone computes what the original kernel
// computes — fails every batched simulator walk on an address outside the
// fields' envelope.  Each batch then falls back to the per-tile path, and
// the farm's outputs and statistics are the per-tile farm's.
func TestFarmBatchEnvelopeFallback(t *testing.T) {
	prog, err := warp.Compile(workloads.Matmul(10), warp.Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	prog.MoveMemoryFields(1000)
	a, b := workloads.LargeMatmulData(35, 35, 35, 5)
	prob, want := warp.MatmulProblem(35, 35, 35, a, b), workloads.MatmulRectRef(a, b, 35, 35, 35)
	cfg := warp.RunConfig{Arrays: 2, Backend: warp.BackendSim}
	out, batched, err := prog.RunPartitioned(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	ref, perTile, err := prog.RunPartitionedPerTile(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range out {
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(ref[name], want) {
			t.Fatalf("%s: batched, per-tile and whole-problem outputs differ", name)
		}
	}
	if batched.Batches != 2 || batched.BatchFallbacks != batched.Batches {
		t.Errorf("%d batches, %d fell back; want 2, all of them", batched.Batches, batched.BatchFallbacks)
	}
	if got, want := scrubFarm(batched), scrubFarm(perTile); !reflect.DeepEqual(got, want) {
		t.Errorf("batched statistics %+v,\nper-tile %+v", got, want)
	}
}
