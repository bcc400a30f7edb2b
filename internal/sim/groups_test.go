package sim_test

// Streamed groups: a run whose cells walk in several groups must be the
// sequential walk, bit for bit, record for record and error for error.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"warp/internal/alloctest"
	"warp/internal/driver"
	"warp/internal/obs"
	"warp/internal/sim"
	"warp/internal/workloads"
)

var groupCounts = []int{1, 2, 4}

// multiCellP8 are the benchmark's multi-cell programs at the sizes
// exec-sim runs them (smaller under the race detector), each plain and
// pipelined; binop, mandelbrot and fft1024 run on one cell.
func multiCellP8() []struct{ name, src string } {
	side, n := 128, 2048
	if alloctest.Race {
		side, n = 24, 256
	}
	return []struct{ name, src string }{
		{"polynomial", workloads.Polynomial(10, 100)},
		{"conv1d", workloads.Conv1D(9, n)},
		{"colorseg", workloads.ColorSeg(side, side, 10)},
		{"matmul32", workloads.Matmul(32)},
	}
}

// runGroups runs images (copied) in g groups with a progress hook and
// checks the updates: monotone, and exactly one Done, the last, at the
// run's cycle count.
func runGroups(t *testing.T, cfg sim.Config, images [][]float64, g int) ([][]float64, *sim.Stats, error) {
	t.Helper()
	defer sim.SetGroups(g)()
	mems := make([][]float64, len(images))
	for l, img := range images {
		mems[l] = append([]float64(nil), img...)
	}
	var ups []obs.ProgressUpdate
	cfg.Progress = func(u obs.ProgressUpdate) { ups = append(ups, u) }
	st, err := sim.Load(cfg).RunBatch(cfg, mems)
	if err != nil {
		return mems, st, err
	}
	var prev int64
	for i, u := range ups {
		if u.Cycles < prev || u.Done != (i == len(ups)-1) {
			t.Errorf("%d groups: update %d of %d is %+v after cycle %d", g, i, len(ups), u, prev)
		}
		prev = u.Cycles
	}
	if len(ups) == 0 || prev != st.Cycles {
		t.Errorf("%d groups: %d updates ending at cycle %d, want the last at %d", g, len(ups), prev, st.Cycles)
	}
	return mems, st, nil
}

// checkGroups runs images on every group count, with the per-µPC
// counters off and on, and holds each run to the one-group run: every
// host word bit-identical, the Stats equal, profile included.
func checkGroups(t *testing.T, name string, cfg sim.Config, images [][]float64) {
	t.Helper()
	for _, pcStats := range []bool{false, true} {
		cfg.PCStats = pcStats
		want, wantSt, err := runGroups(t, cfg, images, 1)
		if err != nil {
			t.Fatalf("%s: one group: %v", name, err)
		}
		for _, g := range groupCounts[1:] {
			got, st, err := runGroups(t, cfg, images, g)
			if err != nil {
				t.Fatalf("%s, PCStats %v: %d groups: %v", name, pcStats, g, err)
			}
			if !reflect.DeepEqual(st, wantSt) {
				t.Errorf("%s, PCStats %v: %d groups: Stats %+v,\none group's %+v", name, pcStats, g, st, wantSt)
			}
			for l := range got {
				for i := range got[l] {
					if math.Float64bits(got[l][i]) != math.Float64bits(want[l][i]) {
						t.Fatalf("%s, PCStats %v: %d groups, lane %d, host word %d: %v, one group %v",
							name, pcStats, g, l, i, got[l][i], want[l][i])
					}
				}
			}
		}
	}
}

// TestGroupsMatchSequential: every multi-cell P8 program, plain and
// pipelined, and 50 random multi-cell programs, one and three problems
// wide, in 1, 2 and 4 groups.
func TestGroupsMatchSequential(t *testing.T) {
	widths := []int{1, 3}
	for _, p := range multiCellP8() {
		for _, pipeline := range []bool{false, true} {
			c, cfg := configFor(t, p.src, driver.Options{Pipeline: pipeline})
			for _, width := range widths {
				images := make([][]float64, width)
				for l := range images {
					images[l] = seededImage(t, c, int64(10+l))
				}
				checkGroups(t, fmt.Sprintf("%s pipeline=%v width %d", p.name, pipeline, width), cfg, images)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 50; {
		src, inputs := workloads.RandomProgram(rng)
		c, cfg := configFor(t, src, driver.Options{Pipeline: n%2 == 1})
		if c.Cells < 2 {
			continue
		}
		for _, width := range widths {
			images := make([][]float64, width)
			for l := range images {
				var err error
				if images[l], err = c.Info.HostMem(inputs); err != nil {
					t.Fatal(err)
				}
				for x := range images[l] { // lane 0 keeps the generator's inputs
					images[l][x] += float64(l*(x%5)) / 4
				}
			}
			checkGroups(t, fmt.Sprintf("random %d width %d", n, width), cfg, images)
		}
		n++
	}
}

// TestGroupsCancel: a run in several groups cancelled in its middle
// fails with an error wrapping context.Canceled, and leaves no goroutine
// behind.
func TestGroupsCancel(t *testing.T) {
	c, cfg := configFor(t, workloads.Matmul(32), driver.Options{})
	img := seededImage(t, c, 1)
	base := runtime.NumGoroutine()
	for _, g := range groupCounts[1:] {
		restore := sim.SetGroups(g)
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Ctx = ctx
		cfg.Progress = func(obs.ProgressUpdate) { cancel() }
		cfg.HostMem = append([]float64(nil), img...)
		if _, err := sim.Run(cfg); !errors.Is(err, context.Canceled) {
			t.Errorf("%d groups: err = %v, want one wrapping context.Canceled", g, err)
		}
		cancel()
		restore()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the cancelled runs, %d before", n, base)
	}
}

// TestGroupsPanic: a progress hook's panic, raised in the last group on a
// helper goroutine, reaches the caller with its value once every group
// has stopped, and leaves no goroutine behind.
func TestGroupsPanic(t *testing.T) {
	c, cfg := configFor(t, workloads.Matmul(32), driver.Options{})
	cfg.HostMem = seededImage(t, c, 1)
	base := runtime.NumGoroutine()
	for _, g := range groupCounts[1:] {
		restore := sim.SetGroups(g)
		cfg.Progress = func(obs.ProgressUpdate) { panic("hook") }
		func() {
			defer func() {
				if r := recover(); r != "hook" {
					t.Errorf("%d groups: recovered %v, want the hook's panic", g, r)
				}
			}()
			sim.Run(cfg)
		}()
		restore()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the panicking runs, %d before", n, base)
	}
}

// BenchmarkRunGroups times one run of the two multi-cell P8 programs the
// simulator spends the most time on: go test -run '^$' -bench RunGroups
// -cpu 1,2 ./internal/sim compares the walk on one processor with the
// walk in groups on two.
func BenchmarkRunGroups(b *testing.B) {
	for _, k := range []struct {
		name, src string
		pipeline  bool
	}{
		{"colorseg128", workloads.ColorSeg(128, 128, 10), true},
		{"matmul32-plain", workloads.Matmul(32), false},
	} {
		c, cfg := configFor(b, k.src, driver.Options{Pipeline: k.pipeline})
		cfg.PCStats = false
		cfg.HostMem = seededImage(b, c, 1)
		l := sim.Load(cfg)
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := l.RunBatch(cfg, [][]float64{cfg.HostMem}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
