package driver

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"warp/internal/obs"
	"warp/internal/sim"
	"warp/internal/workloads"
)

// TestControlsParity: the run controls (sim.Controls) mean one thing on
// both executors, for a run alone and for a batched walk.  A cancelled
// context fails the run with an error wrapping context.Canceled; the
// livelock guard fails a run two cycles short of its length and lets one
// cycle short complete; progress is monotone and ends in exactly one Done
// update at the run's cycle count.  Conv1D(9, 512) is long enough that
// the progress stride fires several times; matmul(32), 115 000 op-cells
// and 124 480 cell cycles, is past the work at which the fast executor's
// cells and the simulator's groups of cells stream on spare processors.
func TestControlsParity(t *testing.T) {
	for _, prog := range []struct {
		suffix, src string
		pipeline    bool
	}{
		{"", workloads.Conv1D(9, 512), false},
		{"/streamed", workloads.Matmul(32), true},
	} {
		c, err := Compile(prog.src, Options{Pipeline: prog.pipeline, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		controlsParity(t, c, prog.suffix)
	}
}

func controlsParity(t *testing.T, c *Compiled, suffix string) {
	cycles := c.ModeledCycles()
	for _, backend := range []string{BackendSim, BackendFast} {
		for _, width := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/width=%d%s", backend, width, suffix), func(t *testing.T) {
				inputs := make([]map[string][]float64, width)
				for i := range inputs {
					inputs[i] = zeroIn(c)
				}
				run := func(o RunOptions) ([]*sim.Stats, error) {
					o.Backend = backend
					_, stats, err := RunBatch(c, inputs, o)
					return stats, err
				}

				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := run(RunOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled context: err = %v, want one wrapping context.Canceled", err)
				}
				if _, err := run(RunOptions{MaxCycles: cycles - 2}); !errors.Is(err, sim.ErrLivelock) {
					t.Errorf("MaxCycles %d: err = %v, want one wrapping ErrLivelock", cycles-2, err)
				}

				var ups []obs.ProgressUpdate
				stats, err := run(RunOptions{MaxCycles: cycles - 1, Progress: func(u obs.ProgressUpdate) { ups = append(ups, u) }})
				if err != nil {
					t.Fatalf("MaxCycles %d: %v", cycles-1, err)
				}
				st := stats[0]
				if st.Cycles != cycles || st.Backend != backend {
					t.Fatalf("ran %d cycles on %q, want %d on %q", st.Cycles, st.Backend, cycles, backend)
				}
				if want := width; width > 1 && st.Decision.Batch != want {
					t.Fatalf("walk width %d, want %d", st.Decision.Batch, want)
				}
				if len(ups) < 2 {
					t.Fatalf("%d progress updates, want several", len(ups))
				}
				var prev int64
				done := 0
				for i, u := range ups {
					if u.Cycles < prev {
						t.Errorf("update %d went backwards (%d after %d)", i, u.Cycles, prev)
					}
					prev = u.Cycles
					if u.Done {
						done++
					}
				}
				if last := ups[len(ups)-1]; done != 1 || !last.Done || last.Cycles != cycles {
					t.Errorf("%d Done updates, the last %+v; want one, the last, at cycle %d", done, last, cycles)
				}
			})
		}
	}
}
