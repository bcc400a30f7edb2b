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
	"warp/internal/mcode/mcodetest"
	"warp/internal/sim"
	"warp/internal/workloads"
)

var batchWidths = []int{1, 2, 3, 7, 32, 33}

// checkBatch runs one ExecuteBatch over the images and one Execute per
// image over copies of them, and compares memories bit for bit and the
// run records field for field.
func checkBatch(t *testing.T, plan *fastexec.Plan, images [][]float64) {
	t.Helper()
	want := make([][]float64, len(images))
	var wantRes *sim.Stats
	for l, img := range images {
		want[l] = append([]float64(nil), img...)
		res, err := plan.Execute(want[l], sim.Controls{})
		if err != nil {
			t.Fatalf("lane %d alone: %v", l, err)
		}
		if wantRes != nil && !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("lane %d alone: result %+v, lane 0's %+v", l, res, wantRes)
		}
		wantRes = res
	}
	res, err := plan.ExecuteBatch(images, sim.Controls{})
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
					if images[l], err = c.Info.HostMem(seededInputs(c, int64(100+l))); err != nil {
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
				if images[l], err = c.Info.HostMem(inputs); err != nil {
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
		if images[l], err = c.Info.HostMem(in); err != nil {
			t.Fatal(err)
		}
	}
	res, err := plan.ExecuteBatch(images, sim.Controls{})
	if res != nil || err == nil {
		t.Fatalf("result %v, error %v: a divide by zero in lane %d must fail the batch", res, err, bad)
	}
	if !strings.HasSuffix(err.Error(), "floating divide by zero in lane 3") {
		t.Errorf("error %q does not name lane %d", err, bad)
	}
	// The same fault, the same text up to the lane, on the one-wide body.
	_, single := plan.Execute(images[bad], sim.Controls{})
	if single == nil || err.Error() != single.Error()+" in lane 3" {
		t.Errorf("batch error %q, the lane alone fails with %q", err, single)
	}
	// Without the bad lane the batch runs.
	if _, err := plan.ExecuteBatch(append(images[:bad:bad], images[bad+1:]...), sim.Controls{}); err != nil {
		t.Errorf("the other lanes: %v", err)
	}
}

// TestBatchLandingOrder: writes that meet at one register or one memory
// word at the end of one cycle land in the machine's order — FPU results
// due, then receives, loads, stores, one-cycle ALU results and the
// literal — and every code only Eval computes reads its operands as they
// stand, on the one-wide body and in every lane of a batched walk; a
// fault reads alike on both, up to the lane the batch names.  The
// simulator runs the same cases in its own test.  Some cases write one
// register twice in a cycle, which the verifier refuses, so the plans
// are built without its report.
func TestBatchLandingOrder(t *testing.T) {
	for _, c := range mcodetest.LandingCases() {
		t.Run(c.Name, func(t *testing.T) {
			plan, err := fastexec.Build(sim.Config{Cells: 1, Cell: c.Cell, IU: c.IU, Host: c.Host, Lead: c.Lead})
			if err != nil {
				t.Fatal(err)
			}
			images := make([][]float64, len(c.Inputs))
			for l := range images {
				images[l] = c.Image(l)
				alone := c.Image(l)
				_, err := plan.Execute(alone, sim.Controls{})
				if err := c.Check(alone, err, "cell 0: fastexec: "+c.Fault); err != nil {
					t.Errorf("lane %d alone: %v", l, err)
				}
			}
			_, err = plan.ExecuteBatch(images, sim.Controls{})
			for l, img := range images {
				if err := c.Check(img, err, "cell 0: fastexec: "+c.Fault+" in lane 0"); err != nil {
					t.Errorf("lane %d: %v", l, err)
				}
			}
		})
	}
}

// BenchmarkExecuteBatch reports the walk's cost per problem at the
// fabric's two tile kernels, and at small binop and colorseg kernels,
// the programs where a one-problem run spends its time: width 1 is
// Execute.
func BenchmarkExecuteBatch(b *testing.B) {
	for _, k := range []struct{ name, src string }{
		{"matmul10", workloads.Matmul(10)},
		{"conv1d-9x512", workloads.Conv1D(9, 512)},
		{"binop64", workloads.Binop(64, 64)},
		{"colorseg16", workloads.ColorSeg(16, 16, 10)},
	} {
		c, err := driver.Compile(k.src, driver.Options{Pipeline: true})
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
				if images[l], err = c.Info.HostMem(seededInputs(c, int64(l))); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("%s/width=%d", k.name, width), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := plan.ExecuteBatch(images, sim.Controls{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width)/1e3, "µs/problem")
			})
		}
	}
}
