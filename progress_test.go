package warp_test

import (
	"sync/atomic"
	"testing"

	"warp"
	"warp/internal/alloctest"
	"warp/internal/driver"
	"warp/internal/obs"
	"warp/internal/sim"
	"warp/internal/workloads"
)

// progressSink is package-level and non-capturing, so passing it as a
// ProgressFunc allocates nothing.
var progressCount atomic.Int64

func progressSink(obs.ProgressUpdate) { progressCount.Add(1) }

// TestProgressNeutral extends the TestObsNeutral contract to the
// progress hook: attaching one changes neither cycle counts nor
// outputs, and every run carries a decision record.
func TestProgressNeutral(t *testing.T) {
	for _, j := range obsJobs {
		t.Run(j.name, func(t *testing.T) {
			prog, err := warp.Compile(j.src, warp.Options{Pipeline: j.pipe})
			if err != nil {
				t.Fatal(err)
			}
			out, stats, err := prog.Run(j.inputs())
			if err != nil {
				t.Fatal(err)
			}
			var ups []warp.ProgressUpdate
			pout, pstats, err := prog.RunWith(warp.RunConfig{
				Progress: func(u warp.ProgressUpdate) { ups = append(ups, u) },
			}, j.inputs())
			if err != nil {
				t.Fatal(err)
			}
			if pstats.Cycles != stats.Cycles || pstats.Cycles != j.cycles {
				t.Errorf("progress changed cycles: %d vs %d (baseline %d)", pstats.Cycles, stats.Cycles, j.cycles)
			}
			if len(ups) == 0 || !ups[len(ups)-1].Done {
				t.Errorf("want a terminal progress update, got %d updates", len(ups))
			}
			if pstats.Decision == nil || pstats.Decision.ActualWallNS <= 0 {
				t.Errorf("run carries no completed decision: %+v", pstats.Decision)
			}
			for name, want := range out {
				got := pout[name]
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("progress changed output %s[%d]", name, i)
					}
				}
			}
		})
	}
}

// simConfigFor compiles a small workload down to a raw simulator
// config so the hook cost can be measured without the driver's
// per-run bookkeeping.
func simConfigFor(t testing.TB) (sim.Config, []float64) {
	t.Helper()
	c, err := driver.Compile(workloads.Polynomial(10, 100), driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hostMem, err := c.Info.HostMem(map[string][]float64{
		"z": make([]float64, 100), "c": make([]float64, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host,
		Skew: c.Skew, Lead: c.IUGen.Prologue + 1,
	}, hostMem
}

// TestProgressNilZeroAlloc pins the zero-overhead-when-nil contract at
// the allocation level: a simulator run allocates exactly the same
// with a progress hook attached as without one — the hook itself (a
// nil check plus a by-value struct call at the poll stride) allocates
// nothing, so the nil path trivially adds zero allocations.
func TestProgressNilZeroAlloc(t *testing.T) {
	cfg, hostMem := simConfigFor(t)
	run := func(p obs.ProgressFunc) {
		c := cfg
		c.HostMem = append([]float64(nil), hostMem...)
		c.Progress = p
		if _, err := sim.Run(c); err != nil {
			t.Fatal(err)
		}
	}
	allocsNil := testing.AllocsPerRun(10, func() { run(nil) })
	allocsOn := testing.AllocsPerRun(10, func() { run(progressSink) })
	if alloctest.Race {
		t.Skipf("allocation counts are not stable under the race detector (%v with hook, %v without)", allocsOn, allocsNil)
	}
	if allocsOn != allocsNil {
		t.Errorf("progress hook allocates: %v allocs with hook, %v without", allocsOn, allocsNil)
	}
}

// BenchmarkSimProgress measures the run-loop cost of the progress
// hook: nil (the default) must track the pre-hook baseline, and an
// attached no-op hook costs one call per poll stride.
func BenchmarkSimProgress(b *testing.B) {
	cfg, hostMem := simConfigFor(b)
	for _, bc := range []struct {
		name string
		p    obs.ProgressFunc
	}{{"nil", nil}, {"attached", progressSink}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cfg
				c.HostMem = append([]float64(nil), hostMem...)
				c.Progress = bc.p
				if _, err := sim.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
