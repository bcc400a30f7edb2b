package sim_test

// The batch axis: N problems through one walk of the machine must leave
// every host memory as N runs do, lane for lane, and report the Stats
// each of those runs reports.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"warp/internal/driver"
	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/sim"
	"warp/internal/w2"
	"warp/internal/workloads"
)

var batchWidths = []int{1, 2, 3, 7, 32, 33}

// configFor compiles W2 source and assembles the simulator configuration
// as the driver does, with the per-µPC counters on.
func configFor(t testing.TB, src string, opts driver.Options) (*driver.Compiled, sim.Config) {
	t.Helper()
	c, err := driver.Compile(src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c, sim.Config{Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host,
		Skew: c.Skew, Lead: c.IUGen.Prologue + 1, PCStats: true}
}

// seededImage builds a host image of quarter-step inputs: every
// intermediate stays exactly representable, so bit equality means
// something.
func seededImage(t testing.TB, c *driver.Compiled, seed int64) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := map[string][]float64{}
	for _, sym := range c.Info.HostSyms {
		if !sym.Out {
			vals := make([]float64, sym.Type.Size())
			for i := range vals {
				vals[i] = float64(rng.Intn(64)-32) / 4
			}
			in[sym.Name] = vals
		}
	}
	img, err := c.Info.HostMem(in)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// checkBatch runs one RunBatch over the images and one Run per image over
// copies of them, and compares the memories bit for bit and the Stats
// field for field.
func checkBatch(t *testing.T, cfg sim.Config, images [][]float64) {
	t.Helper()
	want := make([][]float64, len(images))
	var wantStats *sim.Stats
	for l, img := range images {
		want[l] = append([]float64(nil), img...)
		cfg.HostMem = want[l]
		st, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("lane %d alone: %v", l, err)
		}
		if wantStats != nil && !reflect.DeepEqual(st, wantStats) {
			t.Fatalf("lane %d alone: stats differ from lane 0's", l)
		}
		wantStats = st
	}
	cfg.HostMem = nil
	st, err := sim.Load(cfg).RunBatch(cfg, images)
	if err != nil {
		t.Fatalf("batch of %d: %v", len(images), err)
	}
	if !reflect.DeepEqual(st, wantStats) {
		t.Errorf("batch of %d: stats %+v,\na single run's %+v", len(images), st, wantStats)
	}
	for l := range images {
		for i := range want[l] {
			if math.Float64bits(images[l][i]) != math.Float64bits(want[l][i]) {
				t.Fatalf("batch of %d, lane %d, host word %d: %v, alone %v", len(images), l, i, images[l][i], want[l][i])
			}
		}
	}
}

// TestBatchMatchesSingle: every workload, plain and pipelined, and the
// random-program generator, at widths on both sides of every boundary
// (one lane is Run; 33 is past the farm's widest batch), a different
// input set in each lane.
func TestBatchMatchesSingle(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"polynomial", workloads.Polynomial(10, 40)},
		{"conv1d", workloads.Conv1D(9, 48)},
		{"matmul8", workloads.Matmul(8)},
		{"binop", workloads.Binop(16, 8)},
		{"colorseg", workloads.ColorSeg(16, 8, 4)},
		{"mandelbrot", workloads.Mandelbrot(64, 4)},
		{"fft", workloads.FFT(64)},
	} {
		for _, opts := range []driver.Options{{}, {Pipeline: true}} {
			t.Run(fmt.Sprintf("%s/pipeline=%v", tc.name, opts.Pipeline), func(t *testing.T) {
				c, cfg := configFor(t, tc.src, opts)
				for _, width := range batchWidths {
					images := make([][]float64, width)
					for l := range images {
						images[l] = seededImage(t, c, int64(100+l))
					}
					checkBatch(t, cfg, images)
				}
			})
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		src, inputs := workloads.RandomProgram(rng)
		c, cfg := configFor(t, src, driver.Options{Pipeline: i%2 == 1})
		for _, width := range batchWidths {
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
			checkBatch(t, cfg, images)
		}
	}
}

// TestBatchFaultNamesLane: a machine fault in one lane fails the whole
// walk and says which problem faulted; the lane alone fails with the same
// text up to the lane.
func TestBatchFaultNamesLane(t *testing.T) {
	const src = `module quot (xs in, ds in, qs out)
float xs[8], ds[8], qs[8];
cellprogram (cid : 0 : 1)
begin
  function quot
  begin
    float x, d;
    int i;
    for i := 0 to 7 do begin
      receive (L, X, x, xs[i]);
      receive (L, Y, d, ds[i]);
      send (R, X, x / d, qs[i]);
      send (R, Y, d);
    end;
  end
  call quot;
end
`
	c, cfg := configFor(t, src, driver.Options{})
	const width, bad = 5, 3
	images := make([][]float64, width)
	for l := range images {
		in := map[string][]float64{"xs": make([]float64, 8), "ds": make([]float64, 8)}
		for i := range in["xs"] {
			in["xs"][i], in["ds"][i] = float64(i+l), float64(1+i)
		}
		if l == bad {
			in["ds"][6] = 0
		}
		var err error
		if images[l], err = c.Info.HostMem(in); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sim.Load(cfg).RunBatch(cfg, images)
	if st != nil || err == nil {
		t.Fatalf("stats %v, error %v: a divide by zero in lane %d must fail the walk", st, err, bad)
	}
	if !strings.HasSuffix(err.Error(), "floating divide by zero in lane 3") {
		t.Errorf("error %q does not name lane %d", err, bad)
	}
	cfg.HostMem = images[bad]
	if _, single := sim.Run(cfg); single == nil || err.Error() != single.Error()+" in lane 3" {
		t.Errorf("batch error %q, the lane alone fails with %q", err, single)
	}
	cfg.HostMem = nil
	if _, err := sim.Load(cfg).RunBatch(cfg, append(images[:bad:bad], images[bad+1:]...)); err != nil {
		t.Errorf("the other lanes: %v", err)
	}
}

// TestBatchEnvelope: a load whose field is bound to word 0 while the IU
// sends address 5 — in the cell memory, outside the one-word envelope the
// decoder derives — runs alone and fails a batched walk by name.
func TestBatchEnvelope(t *testing.T) {
	sym := &w2.Symbol{Name: "buf", Kind: w2.SymCellArray}
	cfg := sim.Config{
		Cells: 2, Skew: 1, Lead: 1,
		Cell: &mcode.CellProgram{Items: []mcode.CodeItem{&mcode.Straight{Instrs: []*mcode.Instr{
			{}, {},
			{Mem: [mcode.MemPorts]mcode.MemOp{{Kind: mcode.MemLoad, Reg: 1, Addr: mcode.AddrInfo{Sym: sym}}}},
		}}}},
		IU: &mcode.IUProgram{Items: []mcode.IUItem{&mcode.IUStraight{Instrs: []*mcode.IUInstr{
			{Imm: &mcode.IUImm{Dst: 0, Value: 5}},
			{Out: [mcode.MemPorts]*mcode.IUOut{{Src: 0}}},
		}}}},
		Host: &hostgen.Program{In: map[w2.Channel]hostgen.Stream{}, Out: map[w2.Channel]hostgen.Stream{}},
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatalf("alone: %v", err)
	}
	_, err := sim.Load(cfg).RunBatch(cfg, [][]float64{nil, nil, nil})
	if !errors.Is(err, sim.ErrEnvelope) {
		t.Fatalf("batched: %v, want an error wrapping ErrEnvelope", err)
	}
	const want = "cycle 3: cell 0: sim: address 5 for buf+0 is outside the memory envelope of a batched walk (1 words from 0)"
	if err.Error() != want {
		t.Errorf("batched: %q,\nwant %q", err, want)
	}
}

// BenchmarkRunBatch reports the walk's cost per problem at the fabric's
// two tile kernels, and at small binop and colorseg kernels, the programs
// where a one-problem run spends its time: width 1 is Run.
func BenchmarkRunBatch(b *testing.B) {
	for _, k := range []struct{ name, src string }{
		{"matmul10", workloads.Matmul(10)},
		{"conv1d-9x512", workloads.Conv1D(9, 512)},
		{"binop64", workloads.Binop(64, 64)},
		{"colorseg16", workloads.ColorSeg(16, 16, 10)},
	} {
		c, cfg := configFor(b, k.src, driver.Options{Pipeline: true})
		cfg.PCStats = false
		for _, width := range []int{1, 8, 32, 128} {
			images := make([][]float64, width)
			for l := range images {
				images[l] = seededImage(b, c, int64(l))
			}
			b.Run(fmt.Sprintf("%s/width=%d", k.name, width), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sim.Load(cfg).RunBatch(cfg, images); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width)/1e3, "µs/problem")
			})
		}
	}
}
