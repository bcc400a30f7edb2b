package driver

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"warp/internal/alloctest"
	"warp/internal/obs"
	"warp/internal/sim"
	"warp/internal/workloads"
)

// The simulator is the reference every other layer is measured
// against, so its own observable behaviour is pinned here from the
// outside: the complete sim.Stats of a run (cycle counts, per-cell
// stall attribution and depth profile, per-queue high-water marks and
// occupancy histograms, exact per-µPC counters) as JSON, and a digest
// of the recorder event stream.  Both goldens were recorded from the
// tree-walking simulator that preceded the decoded core (PR 15); any
// rewrite of internal/sim must reproduce them byte for byte.  Refresh
// with `go test ./internal/driver -run TestSimGolden -update` only when
// the machine model itself is meant to change.

// simGoldenCases are the named workloads at test sizes, plus one
// ten-cell run whose Y stream outpaces cell 0 until the host blocks on
// the full queue (HostStallY > 0).
func simGoldenCases(t *testing.T) []struct{ name, src string } {
	return []struct{ name, src string }{
		{"polynomial", readTestdata(t, "polynomial.w2")},
		{"conv1d", workloads.Conv1D(9, 64)},
		{"binop", workloads.Binop(16, 12)},
		{"mandelbrot", workloads.Mandelbrot(64, 4)},
		{"fft", workloads.FFT(16)},
		{"matmul", workloads.Matmul(8)},
		{"backpressure", workloads.MatmulRect(16, 10, 16)},
	}
}

// simConfigOf assembles the simulator configuration exactly as RunWith
// does, over zero inputs (the machine is statically scheduled: data
// never affects timing).
func simConfigOf(t *testing.T, c *Compiled) sim.Config {
	t.Helper()
	mem, err := c.Info.HostMem(zeroIn(c))
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host,
		Skew: c.Skew, Lead: c.IUGen.Prologue + 1, HostMem: mem,
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s: recorded behaviour changed at byte %s", path, diffAt(want, got))
	}
}

// diffAt shows the first divergent byte of two goldens with some context
// on either side.
func diffAt(want, got []byte) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	clip := func(b []byte) []byte {
		lo, hi := i-60, i+60
		if lo < 0 {
			lo = 0
		}
		if hi > len(b) {
			hi = len(b)
		}
		return b[lo:hi]
	}
	return fmt.Sprintf("%d:\n  want …%s…\n  got  …%s…", i, clip(want), clip(got))
}

// TestSimGoldenStats pins the full Stats value, PCStats included.
func TestSimGoldenStats(t *testing.T) {
	for _, tc := range simGoldenCases(t) {
		for _, pipeline := range []bool{false, true} {
			name := tc.name + ".plain"
			if pipeline {
				name = tc.name + ".pipelined"
			}
			t.Run(name, func(t *testing.T) {
				c, err := Compile(tc.src, Options{Pipeline: pipeline})
				if err != nil {
					t.Fatal(err)
				}
				cfg := simConfigOf(t, c)
				cfg.PCStats = true
				stats, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tc.name == "backpressure" && stats.Obs.HostStallX+stats.Obs.HostStallY == 0 {
					t.Error("the backpressure case no longer blocks the host")
				}
				got, err := json.Marshal(stats)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, filepath.Join("testdata", "simstats."+name+".json"), append(got, '\n'))
			})
		}
	}
}

// hashRec folds every cycle event, with its arguments and in call
// order, into one digest.
type hashRec struct {
	h hash.Hash
	n int
}

func (r *hashRec) ev(name string, args ...int64) {
	fmt.Fprintln(r.h, name, args)
	r.n++
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (r *hashRec) RunStart(cells int, skew, lead int64) { r.ev("RunStart", int64(cells), skew, lead) }
func (r *hashRec) RunEnd(cycle int64)                   { r.ev("RunEnd", cycle) }
func (r *hashRec) CellStart(cycle int64, cell int)      { r.ev("CellStart", cycle, int64(cell)) }
func (r *hashRec) CellFinish(cycle int64, cell int)     { r.ev("CellFinish", cycle, int64(cell)) }
func (r *hashRec) Issue(cycle int64, cell int, u obs.Unit) {
	r.ev("Issue", cycle, int64(cell), int64(u))
}
func (r *hashRec) MemRef(cycle int64, cell int, port int, addr int64, store bool) {
	r.ev("MemRef", cycle, int64(cell), int64(port), addr, b2i(store))
}
func (r *hashRec) QueuePush(cycle int64, cell int, q obs.Queue, occ int) {
	r.ev("QueuePush", cycle, int64(cell), int64(q), int64(occ))
}
func (r *hashRec) QueuePop(cycle int64, cell int, q obs.Queue, occ int) {
	r.ev("QueuePop", cycle, int64(cell), int64(q), int64(occ))
}
func (r *hashRec) Stall(cycle int64, cell int, s obs.Stall) {
	r.ev("Stall", cycle, int64(cell), int64(s))
}

// TestSimGoldenEvents pins the recorder event stream of the ten-cell
// backpressure run (every stall kind occurs in it, queue-full included)
// and of the pipelined polynomial.
func TestSimGoldenEvents(t *testing.T) {
	var out bytes.Buffer
	for _, tc := range []struct {
		name, src string
		pipeline  bool
	}{
		{"backpressure.plain", workloads.MatmulRect(16, 10, 16), false},
		{"polynomial.pipelined", readTestdata(t, "polynomial.w2"), true},
	} {
		c, err := Compile(tc.src, Options{Pipeline: tc.pipeline})
		if err != nil {
			t.Fatal(err)
		}
		rec := &hashRec{h: sha256.New()}
		cfg := simConfigOf(t, c)
		cfg.Recorder = rec
		if _, err := sim.Run(cfg); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %d events sha256 %x\n", tc.name, rec.n, rec.h.Sum(nil))
	}
	checkGolden(t, filepath.Join("testdata", "simevents.golden"), out.Bytes())
}

// TestSimAllocsIndependentOfCycles is the simulator's allocation
// contract: everything a run needs is allocated up front, in proportion
// to the number of cells and never to the number of cycles.  The same
// ten-cell program over eight times the points (eight times the cycles)
// must allocate exactly as often, and that under a small fixed ceiling.
func TestSimAllocsIndependentOfCycles(t *testing.T) {
	allocs := func(points int) (float64, int64) {
		c, err := Compile(workloads.Polynomial(10, points), Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := simConfigOf(t, c)
		var cycles int64
		n := alloctest.AllocsPerRun(5, func() {
			stats, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cycles = stats.Cycles
		})
		return n, cycles
	}
	short, shortCycles := allocs(100)
	long, longCycles := allocs(800)
	if longCycles < 4*shortCycles {
		t.Fatalf("the long run is only %d cycles against %d", longCycles, shortCycles)
	}
	if short != long {
		t.Errorf("allocations grow with the run: %v at %d cycles, %v at %d", short, shortCycles, long, longCycles)
	}
	const ceiling = 60
	if long > ceiling {
		t.Errorf("sim.Run allocates %v times, want at most %d", long, ceiling)
	}
	t.Logf("sim.Run: %v allocations at %d and at %d cycles", long, shortCycles, longCycles)
}

// TestRunWithSimLoadsOnce: a simulator run through the driver reads the
// program its compile's verify stage loaded and proved, so what it
// allocates is the run's machine state and record and the host image
// around them — the same at eight times the cycles, and none of it a
// decode.  It allocated 70 times while every run decoded the cell and IU
// programs, 17 of them the two decodes.  And a compile and its first run
// decode the cell program once: fft1024's compile plus the plan of its
// first fast run allocated 6 601 times while the verifier decoded the
// cell program on its own, and 6 583–6 584 since.
func TestRunWithSimLoadsOnce(t *testing.T) {
	allocs := func(points int) float64 {
		c, err := Compile(workloads.Polynomial(10, points), Options{})
		if err != nil {
			t.Fatal(err)
		}
		proved := c.loaded
		inputs := map[string][]float64{"z": make([]float64, points), "c": make([]float64, 10)}
		defer func() {
			if proved == nil || c.load() != proved {
				t.Errorf("the runs read another load than the verify stage's")
			}
		}()
		return alloctest.AllocsPerRun(5, func() {
			if _, _, err := RunWith(c, inputs, RunOptions{Backend: BackendSim}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(100), allocs(800)
	if short != long {
		t.Errorf("allocations grow with the run: %v at 100 points, %v at 800", short, long)
	}
	const ceiling = 70 - 17 - 4 // less the decodes and the host readers' loop counters
	if short > ceiling {
		t.Errorf("a simulator run through RunWith allocates %v times, want at most %d", short, ceiling)
	}
	t.Logf("RunWith on the simulator: %v allocations", short)

	if alloctest.Race { // the race detector adds about 130 allocations a compile
		return
	}
	src := workloads.FFTPaper()
	first := testing.AllocsPerRun(5, func() { // as TestCompileAllocBudget counts
		c, err := Compile(src, Options{Pipeline: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.FastPlan(); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 6601 - 17 // less the verifier's decode
	if first > budget {
		t.Errorf("fft1024's compile and first plan allocate %v times, want at most %d", first, budget)
	}
	t.Logf("fft1024 compile and first plan: %v allocations", first)
}
