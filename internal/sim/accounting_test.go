package sim_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"warp/internal/alloctest"
	"warp/internal/driver"
	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/sim"
	"warp/internal/w2"
	"warp/internal/workloads"
)

// TestAccountingIdentity holds the simulator's static issue accounting —
// busy cycles, FPU and memory operations, depth rows and per-µPC busy
// counters, all computed from the program's trip counts when the run
// ends — to the idle cycles the cycle loop counts: for every cell the two
// must cover its active window exactly.  Random programs, the simulator
// goldens' programs plain and pipelined, and a hand-built nest whose
// inner loop has a trip count of zero (the sequencer's do-while loops run
// its body once), alone and 32 lanes wide.  The active window the cycle
// loop measured is also mcode.CountCell's cycle count, the totals are
// its, and Stats.CellActive is the cells' active windows summed.
func TestAccountingIdentity(t *testing.T) {
	type prog struct {
		name  string
		cfg   sim.Config
		image func(lane int) []float64
	}
	var progs []prog
	compile := func(name, src string, opts driver.Options) {
		c, cfg := configFor(t, src, opts)
		progs = append(progs, prog{name, cfg, func(lane int) []float64 { return seededImage(t, c, int64(lane)) }})
	}
	poly, err := os.ReadFile(filepath.Join("..", "..", "testdata", "polynomial.w2"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct{ name, src string }{
		{"polynomial", string(poly)},
		{"conv1d", workloads.Conv1D(9, 64)},
		{"binop", workloads.Binop(16, 12)},
		{"mandelbrot", workloads.Mandelbrot(64, 4)},
		{"fft", workloads.FFT(16)},
		{"matmul", workloads.Matmul(8)},
		{"backpressure", workloads.MatmulRect(16, 10, 16)},
	} {
		compile(p.name+".plain", p.src, driver.Options{})
		compile(p.name+".pipelined", p.src, driver.Options{Pipeline: true})
	}
	for seed := range int64(40) {
		src, _ := workloads.RandomProgram(rand.New(rand.NewSource(seed)))
		compile(fmt.Sprintf("random%d", seed), src, driver.Options{Pipeline: seed%2 == 1})
	}
	// Three iterations of an inner loop of zero trips, each running its
	// add and its nop once; the inner loop's last word closes both loops.
	add := &mcode.Instr{Fields: mcode.Fields{HasAdd: true, Add: mcode.AluOp{Code: mcode.Fadd, Dst: 1}}}
	iu := &mcode.IUStraight{}
	for i := range 3 {
		iu.Instrs = append(iu.Instrs,
			&mcode.IUInstr{Sig: &mcode.IUSig{LoopID: 1, Static: true}},
			&mcode.IUInstr{Sig: &mcode.IUSig{LoopID: 0, Static: true, Continue: i < 2}})
	}
	progs = append(progs, prog{"do-while", sim.Config{
		Cells: 2, Skew: 1, Lead: 8, PCStats: true,
		Cell: &mcode.CellProgram{Items: []mcode.CodeItem{
			&mcode.LoopItem{ID: 0, Trips: 3, Body: []mcode.CodeItem{
				&mcode.LoopItem{ID: 1, Trips: 0, Body: []mcode.CodeItem{
					&mcode.Straight{Instrs: []*mcode.Instr{add, {}}},
				}},
			}},
		}},
		IU:   &mcode.IUProgram{Items: []mcode.IUItem{iu}},
		Host: &hostgen.Program{In: map[w2.Channel]hostgen.Stream{}, Out: map[w2.Channel]hostgen.Stream{}},
	}, func(int) []float64 { return nil }})

	for _, p := range progs {
		counts, err := mcode.CountCell(p.cfg.Cell)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 32} {
			images := make([][]float64, width)
			for l := range images {
				images[l] = p.image(l)
			}
			st, err := sim.Load(p.cfg).RunBatch(p.cfg, images)
			if err != nil {
				t.Fatalf("%s, width %d: %v", p.name, width, err)
			}
			var active int64
			for i := range st.Obs.Cell {
				active += st.Obs.Cell[i].Active()
			}
			if st.CellActive != active {
				t.Errorf("%s, width %d: CellActive %d, Σ cell active %d", p.name, width, st.CellActive, active)
			}
			for i := range st.Obs.Cell {
				cp, pcs := &st.Obs.Cell[i], &st.Obs.PC[i]
				where := fmt.Sprintf("%s, width %d, cell %d", p.name, width, i)
				if active := cp.Finish - cp.Start + 1; cp.Active() != active {
					t.Errorf("%s: busy %d + starved %d + bubble %d, the active window %d cycles",
						where, cp.Busy, cp.Starved, cp.Bubble, active)
				}
				var busy, depth int64
				for pc := range pcs.Busy {
					busy += pcs.Busy[pc]
				}
				for _, d := range cp.Depth {
					depth += d.Cycles
				}
				if busy != cp.Busy || depth != cp.Active() {
					t.Errorf("%s: Σ per-µPC busy %d (busy %d), Σ depth cycles %d (active %d)",
						where, busy, cp.Busy, depth, cp.Active())
				}
				got := [...]int64{cp.Active(), cp.Busy, cp.AddOps, cp.MulOps, cp.MovOps, cp.Loads, cp.Stores}
				want := [...]int64{counts.Cycles, counts.Ops, counts.AddOps, counts.MulOps, counts.MovOps, counts.Loads, counts.Stores}
				if got != want {
					t.Errorf("%s: (active, busy, add, mul, move, loads, stores) = %v, mcode.CountCell %v", where, got, want)
				}
			}
		}
	}
}

// TestStatsIndependentOfInputs pins the premise a run's closed form
// rests on: W2 has no data-dependent control, so everything the
// simulator reports is a property of the program.  The eight benchmark
// programs plain and pipelined and 40 random programs each run on three
// seeded input sets, profiled, and the three records are deep-equal.
// Under the race detector, which slows the simulator about tenfold,
// binop and colorseg run at 64² — the same nests with fewer trips.
func TestStatsIndependentOfInputs(t *testing.T) {
	side := 512
	if alloctest.Race {
		side = 64
	}
	type prog struct{ name, src string }
	progs := []prog{
		{"polynomial", workloads.Polynomial(10, 100)},
		{"conv1d", workloads.Conv1D(9, 2048)},
		{"binop", workloads.Binop(side, side)},
		{"colorseg", workloads.ColorSeg(side, side, 10)},
		{"mandelbrot", workloads.Mandelbrot(32*32, 4)},
		{"fft1024", workloads.FFT(1024)},
		{"matmul32", workloads.Matmul(32)},
	}
	for seed := range int64(40) {
		src, _ := workloads.RandomProgram(rand.New(rand.NewSource(seed)))
		progs = append(progs, prog{fmt.Sprintf("random%d", seed), src})
	}
	for _, p := range progs {
		for _, pipeline := range []bool{false, true} {
			name := fmt.Sprintf("%s pipeline=%v", p.name, pipeline)
			c, cfg := configFor(t, p.src, driver.Options{Pipeline: pipeline})
			var first *sim.Stats
			for seed := range int64(3) {
				cfg.HostMem = seededImage(t, c, seed)
				st, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("%s, inputs %d: %v", name, seed, err)
				}
				if first == nil {
					first = st
				} else if !reflect.DeepEqual(st, first) {
					t.Errorf("%s: inputs %d give other Stats than inputs 0", name, seed)
				}
			}
		}
	}
}

// TestEmptyProgramCostsItsStart: a cell program of no cycles still costs
// each cell its start cycle, on the cycle loop and in the closed form.
func TestEmptyProgramCostsItsStart(t *testing.T) {
	cfg := sim.Config{Cells: 3, Skew: 2, Lead: 5, Cell: &mcode.CellProgram{}, IU: &mcode.IUProgram{},
		Host: &hostgen.Program{In: map[w2.Channel]hostgen.Stream{}, Out: map[w2.Channel]hostgen.Stream{}}}
	st, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := sim.Load(cfg)
	closed := l.Closed(false)
	if want := l.Cycles(); st.Cycles != want || closed.Cycles != want || want != 5+2*2+1 {
		t.Errorf("an empty program runs %d cycles, closed form %d, modeled %d", st.Cycles, closed.Cycles, want)
	}
	if !reflect.DeepEqual(st.CellFinish, closed.CellFinish) {
		t.Errorf("finishes %v, closed form %v", st.CellFinish, closed.CellFinish)
	}
}
