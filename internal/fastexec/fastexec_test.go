package fastexec_test

// Differential contract tests: for every workload the compiler
// produces, the fast executor must match the cycle-accurate simulator
// bit for bit — identical output words, identical modeled cycle count,
// identical operation totals.  These tests are the local half of the
// verifier→fastexec contract; the driver's fuzz harness extends the
// same comparison over random programs.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"warp/internal/driver"
	"warp/internal/fastexec"
	"warp/internal/obs"
	"warp/internal/sim"
	"warp/internal/workloads"
)

// planFor compiles W2 source and builds the fast-execution plan from
// the same artifacts the simulator would consume.
func planFor(t *testing.T, src string, opts driver.Options) (*driver.Compiled, *fastexec.Plan) {
	t.Helper()
	c, err := driver.Compile(src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	plan, err := fastexec.Compile(sim.Config{
		Cells: c.Cells,
		Cell:  c.Cell,
		IU:    c.IU,
		Host:  c.Host,
		Skew:  c.Skew,
		Lead:  c.IUGen.Prologue + 1,
	})
	if err != nil {
		t.Fatalf("fastexec compile: %v", err)
	}
	return c, plan
}

// runBoth executes the program on both backends over independent host
// memory images and asserts bit-identical results.
func runBoth(t *testing.T, c *driver.Compiled, plan *fastexec.Plan, inputs map[string][]float64) {
	t.Helper()
	simMem, err := c.Info.HostMem(inputs)
	if err != nil {
		t.Fatalf("host mem: %v", err)
	}
	fastMem := append([]float64(nil), simMem...)

	simStats, err := sim.Run(sim.Config{
		Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host,
		Skew: c.Skew, Lead: c.IUGen.Prologue + 1, HostMem: simMem,
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	res, err := plan.Execute(fastMem, sim.Controls{})
	if err != nil {
		t.Fatalf("fastexec: %v", err)
	}

	if f, s := runRecord(res), runRecord(simStats); !reflect.DeepEqual(f, s) {
		t.Errorf("run record: fast %+v, sim %+v", f, s)
		for i := range f.Obs.Cell {
			if fc, sc := f.Obs.Cell[i], s.Obs.Cell[i]; !reflect.DeepEqual(fc, sc) {
				t.Errorf("cell %d profile: fast %+v, sim %+v", i, fc, sc)
			}
		}
	}
	for i := range simMem {
		if math.Float64bits(simMem[i]) != math.Float64bits(fastMem[i]) {
			t.Fatalf("host word %d diverges: fast %v (bits %x), sim %v (bits %x)",
				i, fastMem[i], math.Float64bits(fastMem[i]), simMem[i], math.Float64bits(simMem[i]))
		}
	}
}

// runRecord is the part of a run's Stats both executors fill alike:
// cycles, each cell's finish, FPU issues, the cell-active total, the
// words sent, and the profile's array and every cell's profile, depth
// rows included, its idle cycles summed: only the simulator, which has
// the queue timing, splits them into starved and bubble.
func runRecord(st *sim.Stats) sim.Stats {
	prof := obs.Profile{Cells: st.Obs.Cells, Cycles: st.Obs.Cycles, Skew: st.Obs.Skew, Lead: st.Obs.Lead,
		Cell: slices.Clone(st.Obs.Cell)}
	for i := range prof.Cell {
		c := &prof.Cell[i]
		c.Starved, c.Bubble = 0, c.Starved+c.Bubble
	}
	return sim.Stats{Cycles: st.Cycles, CellFinish: st.CellFinish, AddOps: st.AddOps, MulOps: st.MulOps,
		CellActive: st.CellActive, Sent: st.Sent, Obs: &prof}
}

func seededInputs(c *driver.Compiled, seed int64) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed))
	in := map[string][]float64{}
	for _, sym := range c.Info.HostSyms {
		if sym.Out {
			continue
		}
		vals := make([]float64, sym.Type.Size())
		for i := range vals {
			// Quarter steps keep every intermediate exactly representable
			// enough to make bit-comparison meaningful rather than lucky.
			vals[i] = float64(rng.Intn(64)-32) / 4
		}
		in[sym.Name] = vals
	}
	return in
}

var workloadCases = []struct {
	name string
	src  string
}{
	{"polynomial", workloads.Polynomial(10, 40)},
	{"conv1d", workloads.Conv1D(9, 48)},
	{"matmul8", workloads.Matmul(8)},
	{"binop", workloads.Binop(16, 8)},
	{"colorseg", workloads.ColorSeg(16, 8, 4)},
	{"mandelbrot", workloads.Mandelbrot(64, 4)},
	{"fft", workloads.FFT(64)},
}

// TestMatchesSimulator is the core bit-identity sweep: every workload,
// plain and pipelined, both backends, compared word for word.
func TestMatchesSimulator(t *testing.T) {
	for _, tc := range workloadCases {
		for _, opts := range []driver.Options{{}, {Pipeline: true}, {NoOptimize: true}} {
			name := tc.name
			if opts.Pipeline {
				name += "-pipelined"
			}
			if opts.NoOptimize {
				name += "-noopt"
			}
			t.Run(name, func(t *testing.T) {
				c, plan := planFor(t, tc.src, opts)
				runBoth(t, c, plan, seededInputs(c, 1))
			})
		}
	}
}

// TestMatchesSimulatorRandomPrograms extends the bit-identity contract
// over the same random-program generator the verifier fuzz harness
// uses.
func TestMatchesSimulatorRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		src, inputs := workloads.RandomProgram(rng)
		for _, opts := range []driver.Options{{}, {Pipeline: true}} {
			c, plan := planFor(t, src, opts)
			runBoth(t, c, plan, inputs)
		}
	}
}

// TestColorseg512PlainRunsFast: plain colorseg 512² runs 8.9 M cycles,
// past the 2²²-cycle cap of the walk that once validated a plan against
// the elaborated IU (so it ran on the simulator); now the driver's
// automatic choice runs it fast, bit-identical to the simulator and with
// its run record.
func TestColorseg512PlainRunsFast(t *testing.T) {
	c, plan := planFor(t, workloads.ColorSeg(512, 512, 10), driver.Options{})
	inputs := seededInputs(c, 8)
	_, stats, err := driver.RunWith(c, inputs, driver.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := stats.Decision; stats.Backend != driver.BackendFast || d.Reason != "auto-verified" {
		t.Fatalf("backend %s (%s), want fast (auto-verified)", stats.Backend, d.Reason)
	}
	if stats.Cycles <= 1<<22 {
		t.Fatalf("%d cycles: not past the old cap", stats.Cycles)
	}
	runBoth(t, c, plan, inputs)
}

// TestModeledCyclesClosedForm pins the closed-form count against the
// compiled program's own cycle arithmetic.
func TestModeledCyclesClosedForm(t *testing.T) {
	c, plan := planFor(t, workloads.Matmul(8), driver.Options{})
	want := c.IUGen.Prologue + 1 + int64(c.Cells-1)*c.Skew + c.Cell.Cycles()
	if plan.Cycles() != want {
		t.Fatalf("modeled cycles %d, closed form %d", plan.Cycles(), want)
	}
	if plan.Ops() <= 0 || int64(plan.Ops()) > c.Cell.Cycles() {
		t.Fatalf("trace length %d outside (0, %d]", plan.Ops(), c.Cell.Cycles())
	}
}

// TestConcurrentExecute shares one plan across goroutines; run under
// -race this proves Execute never mutates the plan.
func TestConcurrentExecute(t *testing.T) {
	c, plan := planFor(t, workloads.Polynomial(10, 40), driver.Options{})
	inputs := seededInputs(c, 3)
	baseMem, err := c.Info.HostMem(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plan.Execute(append([]float64(nil), baseMem...), sim.Controls{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mem := append([]float64(nil), baseMem...)
			res, err := plan.Execute(mem, sim.Controls{})
			if err != nil {
				t.Errorf("concurrent execute: %v", err)
				return
			}
			if res.Cycles != ref.Cycles {
				t.Errorf("concurrent cycles %d, want %d", res.Cycles, ref.Cycles)
			}
		}()
	}
	wg.Wait()
}

// TestContextCancelled proves an expired deadline aborts the executor
// at its bounded stride, before any work retires.
func TestContextCancelled(t *testing.T) {
	c, plan := planFor(t, workloads.Matmul(8), driver.Options{})
	mem, err := c.Info.HostMem(seededInputs(c, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.Execute(mem, sim.Controls{Ctx: ctx}); err == nil {
		t.Fatal("cancelled context did not abort the run")
	} else if ctx.Err() == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("abort error %v does not wrap %v", err, context.Canceled)
	}
}

// TestProgressStride pins where a polled run reports: on its first plan
// word and then every 4096 words, counted across cells, one and three
// problems wide, then once done (positions recorded before the count
// became an inlined countdown).  The positions are the walk of one
// worker: a run whose cells stream on several reports where its workers
// happen to be, monotone and ending in one Done update
// (TestCellWorkersMatchSequential).
func TestProgressStride(t *testing.T) {
	defer fastexec.SetCellWorkers(1)()
	for _, tc := range []struct {
		name string
		src  string
		opts driver.Options
		want []int64
	}{
		{"polynomial-800", workloads.Polynomial(10, 800), driver.Options{}, []int64{0, 1232, 2469, 3706, 4939, 6176, 7413, 8650, 9722}},
		{"matmul16", workloads.Matmul(16), driver.Options{Pipeline: true}, []int64{0, 329, 658, 987, 1316, 1607}},
	} {
		c, plan := planFor(t, tc.src, tc.opts)
		for _, width := range []int{1, 3} {
			var mems [][]float64
			for l := 0; l < width; l++ {
				mem, err := c.Info.HostMem(seededInputs(c, int64(l+1)))
				if err != nil {
					t.Fatal(err)
				}
				mems = append(mems, mem)
			}
			var got []int64
			_, err := plan.ExecuteBatch(mems, sim.Controls{Progress: func(u obs.ProgressUpdate) {
				if u.Done != (len(got) == len(tc.want)-1) {
					t.Errorf("%s width %d: update %d has Done %v", tc.name, width, len(got), u.Done)
				}
				got = append(got, u.Cycles)
			}})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s width %d: progress at %v, want %v", tc.name, width, got, tc.want)
			}
		}
	}
}

// TestLivelockParity: a MaxCycles bound the simulator would trip must
// trip the fast backend too, with the same sentinel.
func TestLivelockParity(t *testing.T) {
	c, plan := planFor(t, workloads.Matmul(8), driver.Options{})
	mem, err := c.Info.HostMem(seededInputs(c, 5))
	if err != nil {
		t.Fatal(err)
	}
	guard := plan.Cycles() - 10
	if _, err := plan.Execute(mem, sim.Controls{MaxCycles: guard}); !errors.Is(err, sim.ErrLivelock) {
		t.Fatalf("guard %d: error %v does not wrap sim.ErrLivelock", guard, err)
	}
	// One cycle of slack past the modeled count must run clean, exactly
	// like the simulator's m.now > MaxCycles check.
	if _, err := plan.Execute(mem, sim.Controls{MaxCycles: plan.Cycles() - 1}); err != nil {
		t.Fatalf("guard at cycles-1: %v", err)
	}
}
