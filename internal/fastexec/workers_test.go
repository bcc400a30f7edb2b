package fastexec_test

// Streamed cells: a run whose cells stream on several workers must be
// the sequential run, bit for bit, record for record and error for error.

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

	"warp/internal/driver"
	"warp/internal/fastexec"
	"warp/internal/interp"
	"warp/internal/obs"
	"warp/internal/sim"
	"warp/internal/workloads"
)

var workerCounts = []int{1, 2, 4}

// multiCellP8 are the benchmark's multi-cell programs at the sizes
// exec-fast runs them; binop, mandelbrot and fft1024 run on one cell.
var multiCellP8 = []struct {
	name     string
	src      string
	pipeline bool
}{
	{"polynomial", workloads.Polynomial(10, 100), true},
	{"conv1d", workloads.Conv1D(9, 2048), true},
	{"colorseg", workloads.ColorSeg(128, 128, 10), true},
	{"matmul32", workloads.Matmul(32), true},
	{"matmul32-plain", workloads.Matmul(32), false},
}

// runWorkers runs images (copied) on g workers with a progress hook and
// checks the updates: monotone, and exactly one Done, the last, at the
// run's cycle count.
func runWorkers(t *testing.T, plan *fastexec.Plan, images [][]float64, g int) ([][]float64, *sim.Stats, error) {
	t.Helper()
	defer fastexec.SetCellWorkers(g)()
	mems := make([][]float64, len(images))
	for l, img := range images {
		mems[l] = append([]float64(nil), img...)
	}
	var ups []obs.ProgressUpdate
	res, err := plan.ExecuteBatch(mems, sim.Controls{Progress: func(u obs.ProgressUpdate) { ups = append(ups, u) }})
	if err != nil {
		return mems, res, err
	}
	var prev int64
	for i, u := range ups {
		if u.Cycles < prev || u.Done != (i == len(ups)-1) {
			t.Errorf("%d workers: update %d of %d is %+v after cycle %d", g, i, len(ups), u, prev)
		}
		prev = u.Cycles
	}
	if len(ups) == 0 || prev != plan.Cycles() {
		t.Errorf("%d workers: %d updates ending at cycle %d, want the last at %d", g, len(ups), prev, plan.Cycles())
	}
	return mems, res, nil
}

// checkWorkers runs images on every worker count and holds each run to
// the one-worker run: every host word bit-identical, the run records
// equal.
func checkWorkers(t *testing.T, name string, plan *fastexec.Plan, images [][]float64) {
	t.Helper()
	want, wantRes, err := runWorkers(t, plan, images, 1)
	if err != nil {
		t.Fatalf("%s: one worker: %v", name, err)
	}
	for _, g := range workerCounts[1:] {
		got, res, err := runWorkers(t, plan, images, g)
		if err != nil {
			t.Fatalf("%s: %d workers: %v", name, g, err)
		}
		if f, s := runRecord(res), runRecord(wantRes); !reflect.DeepEqual(f, s) {
			t.Errorf("%s: %d workers: run record %+v, one worker's %+v", name, g, f, s)
		}
		for l := range got {
			for i := range got[l] {
				if math.Float64bits(got[l][i]) != math.Float64bits(want[l][i]) {
					t.Fatalf("%s: %d workers, lane %d, host word %d: %v, one worker %v", name, g, l, i, got[l][i], want[l][i])
				}
			}
		}
	}
}

// images builds width host memories of c, a different input set each.
func images(t *testing.T, c *driver.Compiled, inputs func(l int) map[string][]float64, width int) [][]float64 {
	t.Helper()
	imgs := make([][]float64, width)
	for l := range imgs {
		var err error
		if imgs[l], err = interp.BuildHostMem(c.Info, inputs(l)); err != nil {
			t.Fatal(err)
		}
	}
	return imgs
}

// TestCellWorkersMatchSequential: every multi-cell P8 program and 50
// random multi-cell programs, one and three problems wide, on 1, 2 and 4
// workers.
func TestCellWorkersMatchSequential(t *testing.T) {
	widths := []int{1, 3}
	for _, p := range multiCellP8 {
		c, plan := planFor(t, p.src, driver.Options{Pipeline: p.pipeline})
		for _, width := range widths {
			checkWorkers(t, fmt.Sprintf("%s width %d", p.name, width), plan,
				images(t, c, func(l int) map[string][]float64 { return seededInputs(c, int64(10+l)) }, width))
		}
	}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 50; {
		src, inputs := workloads.RandomProgram(rng)
		c, plan := planFor(t, src, driver.Options{Pipeline: n%2 == 1})
		if c.Cells < 2 {
			continue
		}
		for _, width := range widths {
			checkWorkers(t, fmt.Sprintf("random %d width %d", n, width), plan,
				images(t, c, func(int) map[string][]float64 { return inputs }, width))
		}
		n++
	}
}

// quot6 divides on six cells, each by the divisor it receives, passing
// the divisor less one to the right.
const quot6 = `module quot (xs in, ds in, qs out)
float xs[64], ds[64], qs[64];
cellprogram (cid : 0 : 5)
begin
  function quot
  begin
    float x, d;
    int i;
    for i := 0 to 63 do begin
      receive (L, X, x, xs[i]);
      receive (L, Y, d, ds[i]);
      send (R, X, x / d, qs[i]);
      send (R, Y, d - 1.0);
    end;
  end
  call quot;
end
`

// TestCellWorkersFaultOfLeftmostCell: cell 3 divides by zero at element
// 40 and cell 5 at element 2, which streamed cells may reach first; the
// run fails with cell 3's error, the sequential run's, at every worker
// count and width.
func TestCellWorkersFaultOfLeftmostCell(t *testing.T) {
	c, plan := planFor(t, quot6, driver.Options{})
	for _, width := range []int{1, 3} {
		imgs := images(t, c, func(int) map[string][]float64 {
			in := map[string][]float64{"xs": make([]float64, 64), "ds": make([]float64, 64)}
			for i := range in["xs"] {
				in["xs"][i], in["ds"][i] = float64(i), 10
			}
			in["ds"][2], in["ds"][40] = 5, 3
			return in
		}, width)
		want := "cell 3: fastexec: floating divide by zero"
		if width > 1 {
			want += " in lane 0"
		}
		for _, g := range workerCounts {
			if _, _, err := runWorkers(t, plan, imgs, g); err == nil || err.Error() != want {
				t.Errorf("width %d, %d workers: error %v, want %q", width, g, err, want)
			}
		}
	}
}

// TestCellWorkersCancel: a run cancelled while its cells stream returns
// an error wrapping context.Canceled, and its helpers are gone.
func TestCellWorkersCancel(t *testing.T) {
	c, plan := planFor(t, workloads.Matmul(32), driver.Options{Pipeline: true})
	imgs := images(t, c, func(l int) map[string][]float64 { return seededInputs(c, int64(l)) }, 3)
	base := runtime.NumGoroutine()
	for _, g := range workerCounts {
		for _, width := range []int{1, 3} {
			restore := fastexec.SetCellWorkers(g)
			ctx, cancel := context.WithCancel(context.Background())
			_, err := plan.ExecuteBatch(imgs[:width], sim.Controls{Ctx: ctx, Progress: func(obs.ProgressUpdate) { cancel() }})
			cancel()
			restore()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%d workers, width %d: error %v, want one wrapping context.Canceled", g, width, err)
			}
		}
	}
	waitGoroutines(t, base)
}

// TestCellWorkersPanic: a progress hook that panics, on whichever worker
// calls it, panics on the caller's goroutine once every worker has
// stopped, and the next run is whole.
func TestCellWorkersPanic(t *testing.T) {
	c, plan := planFor(t, workloads.Matmul(32), driver.Options{Pipeline: true})
	imgs := images(t, c, func(l int) map[string][]float64 { return seededInputs(c, int64(l)) }, 1)
	base := runtime.NumGoroutine()
	for _, g := range workerCounts {
		restore := fastexec.SetCellWorkers(g)
		func() {
			defer func() {
				if r := recover(); r != "hook" {
					t.Errorf("%d workers: recovered %v, want the hook's panic", g, r)
				}
			}()
			plan.Execute(append([]float64(nil), imgs[0]...), sim.Controls{Progress: func(obs.ProgressUpdate) { panic("hook") }})
		}()
		restore()
		if _, err := plan.Execute(append([]float64(nil), imgs[0]...), sim.Controls{}); err != nil {
			t.Errorf("%d workers: the run after the panic: %v", g, err)
		}
	}
	waitGoroutines(t, base)
}

// waitGoroutines fails unless the goroutines are back to base: a helper
// calls Done as it returns, so give it the moment to exit.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the runs, %d before", n, base)
	}
}

// tail8 passes 64 values along eight cells, then computes on alone: a
// cell runs on long after its last send.
const tail8 = `module tail (xs in, ys out)
float xs[64], ys[64];
cellprogram (cid : 0 : 7)
begin
  function f
  begin
    float x, acc;
    float keep[1];
    int i, k;
    acc := 1.0;
    for i := 0 to 63 do begin
      receive (L, X, x, xs[i]);
      send (R, X, x + acc, ys[i]);
      acc := acc * 0.5;
    end;
    for k := 0 to 30000 do begin
      acc := acc * 0.5 + x;
    end;
    keep[0] := acc;
  end
  call f;
end
`

// TestCellWorkersWriterTail: a progress hook that sleeps holds up
// whichever worker calls it, so a cell's right neighbour may finish
// before the cell itself retires.  The link the cell wrote is reused two
// cells on, and the run stays the sequential one.
func TestCellWorkersWriterTail(t *testing.T) {
	c, plan := planFor(t, tail8, driver.Options{})
	imgs := images(t, c, func(l int) map[string][]float64 { return seededInputs(c, int64(10+l)) }, 1)
	want := append([]float64(nil), imgs[0]...)
	if _, err := plan.Execute(want, sim.Controls{}); err != nil {
		t.Fatal(err)
	}
	for _, g := range workerCounts[1:] {
		for rep := 0; rep < 12; rep++ {
			restore := fastexec.SetCellWorkers(g)
			got := append([]float64(nil), imgs[0]...)
			calls := 0
			_, err := plan.Execute(got, sim.Controls{Progress: func(obs.ProgressUpdate) {
				if calls++; calls%4 == rep%4 {
					time.Sleep(300 * time.Microsecond)
				}
			}})
			restore()
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d workers, run %d: host word %d: %v, want %v", g, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkExecuteCells times one problem of the two P8 programs whose
// runs stream the most: go test -bench ExecuteCells -cpu 1,2
// ./internal/fastexec compares the run on one processor with the run on
// two.
func BenchmarkExecuteCells(b *testing.B) {
	for _, k := range []struct{ name, src string }{
		{"colorseg128", workloads.ColorSeg(128, 128, 10)},
		{"matmul32", workloads.Matmul(32)},
	} {
		c, err := driver.Compile(k.src, driver.Options{Pipeline: true})
		if err != nil {
			b.Fatal(err)
		}
		plan, err := c.FastPlan()
		if err != nil {
			b.Fatal(err)
		}
		mem, err := interp.BuildHostMem(c.Info, seededInputs(c, 1))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Execute(mem, sim.Controls{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
