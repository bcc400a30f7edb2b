package fastexec_test

// The batch axis: N problems through one walk of the plan must leave
// every host memory as N single walks do, lane for lane.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"warp/internal/driver"
	"warp/internal/fastexec"
	"warp/internal/hostgen"
	"warp/internal/interp"
	"warp/internal/mcode"
	"warp/internal/w2"
	"warp/internal/workloads"
)

var batchWidths = []int{1, 2, 3, 7, 32, 33}

// checkBatch runs one ExecuteBatch over the images and one Execute per
// image over copies of them, and compares memories bit for bit and the
// Results field for field.
func checkBatch(t *testing.T, plan *fastexec.Plan, images [][]float64) {
	t.Helper()
	want := make([][]float64, len(images))
	var wantRes *fastexec.Result
	for l, img := range images {
		want[l] = append([]float64(nil), img...)
		res, err := plan.Execute(want[l], fastexec.ExecConfig{})
		if err != nil {
			t.Fatalf("lane %d alone: %v", l, err)
		}
		if wantRes != nil && !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("lane %d alone: result %+v, lane 0's %+v", l, res, wantRes)
		}
		wantRes = res
	}
	res, err := plan.ExecuteBatch(images, fastexec.ExecConfig{})
	if err != nil {
		t.Fatalf("batch of %d: %v", len(images), err)
	}
	if !reflect.DeepEqual(res, wantRes) {
		t.Errorf("batch of %d: result %+v, a single run's %+v", len(images), res, wantRes)
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
// (one lane takes runCell; 33 is past the farm's widest batch), a
// different input set in each lane.  Execute is pinned to the simulator
// by TestMatchesSimulator, so the lanes are too.
func TestBatchMatchesSingle(t *testing.T) {
	for _, tc := range workloadCases {
		for _, opts := range []driver.Options{{}, {Pipeline: true}} {
			c, plan := planFor(t, tc.src, opts)
			for _, width := range batchWidths {
				images := make([][]float64, width)
				for l := range images {
					var err error
					if images[l], err = interp.BuildHostMem(c.Info, seededInputs(c, int64(100+l))); err != nil {
						t.Fatal(err)
					}
				}
				checkBatch(t, plan, images)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		src, inputs := workloads.RandomProgram(rng)
		c, plan := planFor(t, src, driver.Options{Pipeline: i%2 == 1})
		for _, width := range batchWidths {
			images := make([][]float64, width)
			for l := range images {
				var err error
				if images[l], err = interp.BuildHostMem(c.Info, inputs); err != nil {
					t.Fatal(err)
				}
				for x := range images[l] { // lane 0 keeps the generator's inputs
					images[l][x] += float64(l*(x%5)) / 4
				}
			}
			checkBatch(t, plan, images)
		}
	}
}

// TestBatchFaultNamesLane: a machine fault in one lane fails the whole
// batch — no Result, so no lane's memory is reported — and says which
// problem faulted.
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
	c, plan := planFor(t, src, driver.Options{})
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
		if images[l], err = interp.BuildHostMem(c.Info, in); err != nil {
			t.Fatal(err)
		}
	}
	res, err := plan.ExecuteBatch(images, fastexec.ExecConfig{})
	if res != nil || err == nil {
		t.Fatalf("result %v, error %v: a divide by zero in lane %d must fail the batch", res, err, bad)
	}
	if !strings.HasSuffix(err.Error(), "floating divide by zero in lane 3") {
		t.Errorf("error %q does not name lane %d", err, bad)
	}
	// The same fault, the same text up to the lane, on the one-wide body.
	_, single := plan.Execute(images[bad], fastexec.ExecConfig{})
	if single == nil || err.Error() != single.Error()+" in lane 3" {
		t.Errorf("batch error %q, the lane alone fails with %q", err, single)
	}
	// Without the bad lane the batch runs.
	if _, err := plan.ExecuteBatch(append(images[:bad:bad], images[bad+1:]...), fastexec.ExecConfig{}); err != nil {
		t.Errorf("the other lanes: %v", err)
	}
}

// TestBatchLandingOrder: writes that meet at one register at the end of
// one cycle land in the machine's order — FPU results due, then receives,
// then one-cycle ALU results — on the one-wide body and in every lane of
// a batched walk.  r5: an FPU result, a receive and a move, so it holds
// the move's value; r6: an FPU result and a receive, so it holds the
// received word.  The simulator runs the same program in its own test.
func TestBatchLandingOrder(t *testing.T) {
	recv := func(r mcode.Reg) *mcode.Instr {
		return &mcode.Instr{IO: []mcode.IOOp{{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: r}}}
	}
	send := func(r mcode.Reg) *mcode.Instr {
		return &mcode.Instr{IO: []mcode.IOOp{{Dir: w2.DirR, Chan: w2.ChanX, Reg: r}}}
	}
	fadd := func(dst mcode.Reg) *mcode.Instr {
		return &mcode.Instr{Fields: mcode.Fields{HasAdd: true, Add: mcode.AluOp{Code: mcode.Fadd, Dst: dst, Src: [3]mcode.Reg{1, 2}}}}
	}
	instrs := []*mcode.Instr{recv(1), recv(2), fadd(5), fadd(6)}
	for len(instrs) < 2+mcode.FPULatency-1 { // the first sum lands at the end of the next word
		instrs = append(instrs, &mcode.Instr{})
	}
	meet := recv(5)
	meet.HasMov, meet.Mov = true, mcode.AluOp{Code: mcode.Mov, Dst: 5, Src: [3]mcode.Reg{1}}
	instrs = append(instrs, meet, recv(6), send(5), send(6))
	cell := &mcode.CellProgram{Items: []mcode.CodeItem{&mcode.Straight{Instrs: instrs}}}
	host := &hostgen.Program{
		In:  map[w2.Channel]hostgen.Stream{w2.ChanX: hostgen.Of(hostgen.Word{Index: 0}, hostgen.Word{Index: 1}, hostgen.Word{Index: 2}, hostgen.Word{Index: 3})},
		Out: map[w2.Channel]hostgen.Stream{w2.ChanX: hostgen.Of(hostgen.Word{Index: 4}, hostgen.Word{Index: 5})},
	}
	plan, err := fastexec.Compile(fastexec.Program{Cells: 1, Cell: cell, IU: &mcode.IUProgram{}, Host: host, Lead: 1})
	if err != nil {
		t.Fatal(err)
	}
	images := [][]float64{{1, 2, 10, 20, 0, 0}, {3, 4, 30, 40, 0, 0}, {5, 6, 50, 60, 0, 0}}
	check := func(what string, img []float64) {
		t.Helper()
		if img[4] != img[0] || img[5] != img[3] {
			t.Errorf("%s: sent r5 = %v and r6 = %v, want the move's %v and the received %v", what, img[4], img[5], img[0], img[3])
		}
	}
	for l, img := range images {
		alone := append([]float64(nil), img...)
		if _, err := plan.Execute(alone, fastexec.ExecConfig{}); err != nil {
			t.Fatalf("lane %d alone: %v", l, err)
		}
		check(fmt.Sprintf("lane %d alone", l), alone)
	}
	if _, err := plan.ExecuteBatch(images, fastexec.ExecConfig{}); err != nil {
		t.Fatal(err)
	}
	for l, img := range images {
		check(fmt.Sprintf("lane %d", l), img)
	}
}

// BenchmarkExecuteBatch reports the walk's cost per problem at the
// fabric's two tile kernels: width 1 is Execute.
func BenchmarkExecuteBatch(b *testing.B) {
	for _, k := range []struct{ name, src string }{
		{"matmul10", workloads.Matmul(10)},
		{"conv1d-9x512", workloads.Conv1D(9, 512)},
	} {
		c, err := driver.Compile(k.src, driver.Options{Pipeline: true, Verify: true})
		if err != nil {
			b.Fatal(err)
		}
		plan, err := c.FastPlan()
		if err != nil {
			b.Fatal(err)
		}
		for _, width := range []int{1, 8, 32, 128} {
			images := make([][]float64, width)
			for l := range images {
				if images[l], err = interp.BuildHostMem(c.Info, seededInputs(c, int64(l))); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("%s/width=%d", k.name, width), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := plan.ExecuteBatch(images, fastexec.ExecConfig{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width)/1e3, "µs/problem")
			})
		}
	}
}
