package driver

import (
	"testing"

	"warp/internal/workloads"
)

// TestFPUUtilization quantifies the §7 claim "all the arithmetic units
// are fully utilized in the innermost loop": with software pipelining
// at an initiation interval of one, the convolution kernel issues one
// add and one multiply every cycle, so whole-run utilization (which
// includes the distribution phase and pipeline fill) must be high — and
// far higher than the list-scheduled build's.
func TestFPUUtilization(t *testing.T) {
	src := workloads.Conv1D(9, 512)
	inputs := map[string][]float64{
		"x": make([]float64, 512),
		"w": make([]float64, 9),
	}
	util := func(pipeline bool) (add, mul float64) {
		c, err := Compile(src, Options{Pipeline: pipeline})
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := RunWith(c, inputs, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return float64(stats.AddOps) / float64(stats.CellActive),
			float64(stats.MulOps) / float64(stats.CellActive)
	}
	addPlain, mulPlain := util(false)
	addPiped, mulPiped := util(true)
	t.Logf("plain: add %.2f mul %.2f; pipelined: add %.2f mul %.2f",
		addPlain, mulPlain, addPiped, mulPiped)
	if addPiped < 0.7 || mulPiped < 0.7 {
		t.Errorf("pipelined FPU utilization too low: add %.2f, mul %.2f (paper: fully utilized)",
			addPiped, mulPiped)
	}
	if addPiped < 3*addPlain || mulPiped < 3*mulPlain {
		t.Errorf("pipelining should multiply utilization: add %.2f->%.2f, mul %.2f->%.2f",
			addPlain, addPiped, mulPlain, mulPiped)
	}
}

// TestMultiFunctionProgram: several cell functions called in order
// compile and simulate correctly.
func TestMultiFunctionProgram(t *testing.T) {
	src := `
module two (xs in, ys out)
float xs[8];
float ys[8];
cellprogram (c : 0 : 1)
begin
    function stage1
    begin
        float v;
        int i;
        for i := 0 to 3 do begin
            receive (L, X, v, xs[i]);
            send (R, X, v * 2.0, ys[i]);
        end;
    end
    function stage2
    begin
        float v;
        int i;
        for i := 0 to 3 do begin
            receive (L, X, v, xs[4+i]);
            send (R, X, v + 1.0, ys[4+i]);
        end;
    end
    call stage1;
    call stage2;
end
`
	inputs := map[string][]float64{"xs": {1, 2, 3, 4, 5, 6, 7, 8}}
	compareRun(t, src, Options{}, inputs)
	compareRun(t, src, Options{Pipeline: true}, inputs)
}

// TestQueueOverflowRejected: a program whose matched send/receive
// pattern would need more than the 128-word hardware queue is rejected
// at compile time (§6.2.2: "the queue overflow problem is currently
// only detected and reported").
func TestQueueOverflowRejected(t *testing.T) {
	// Each cell consumes slowly (a long dependence chain per received
	// word) but produces quickly (a tight send loop).  The upstream
	// cell's fast sends outrun the downstream cell's slow receives by
	// far more than the 128-word queue.
	src := `
module hoard (xs in, ys out)
float xs[400];
float ys[400];
cellprogram (c : 0 : 1)
begin
    function f
    begin
        float v, a;
        float buf[400];
        int i, j;
        for i := 0 to 399 do begin
            receive (L, X, v, xs[i]);
            a := v + 1.0;
            a := a * a;
            a := a + v;
            a := a * a;
            a := a + v;
            buf[i] := a;
        end;
        for j := 0 to 399 do
            send (R, X, buf[j], ys[j]);
    end
    call f;
end
`
	_, err := Compile(src, Options{})
	if err == nil {
		t.Fatal("expected a queue-overflow rejection")
	}
}
