package cellgen

import (
	"testing"

	"warp/internal/ir"
	"warp/internal/mcode"
	"warp/internal/opt"
	"warp/internal/paper"
	"warp/internal/skew"
	"warp/internal/w2"
)

func compileCell(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	m, err := w2.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := w2.Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(info)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(p)
	res, err := Generate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const passSrc = `
module t (xs in, ys out)
float xs[8];
float ys[8];
cellprogram (c : 0 : 1)
begin
    function f
    begin
        float v;
        int i;
        for i := 0 to 7 do begin
            receive (L, X, v, xs[i]);
            send (R, X, v, ys[i]);
        end;
    end
    call f;
end
`

// TestTimingMatchesWalk: the extracted per-channel timed programs must
// place exactly one Input and one Output per iteration, at the cycles
// the instruction stream shows.
func TestTimingMatchesWalk(t *testing.T) {
	res := compileCell(t, passSrc, Options{})
	timing := skew.CellStreams(res.Cell).Timing()
	x := timing[w2.ChanX]
	if x.Count(skew.Input) != 8 || x.Count(skew.Output) != 8 {
		t.Fatalf("X: %d inputs, %d outputs; want 8/8",
			x.Count(skew.Input), x.Count(skew.Output))
	}
	if y := timing[w2.ChanY]; y.Count(skew.Input) != 0 || y.Count(skew.Output) != 0 {
		t.Errorf("Y channel should be silent")
	}
	if x.Len != res.Cell.Cycles() {
		t.Errorf("timed program length %d, cell cycles %d", x.Len, res.Cell.Cycles())
	}
	// Cross-check each enumerated input time against a manual walk of
	// the instruction stream.
	var manual []int64
	var cycle int64
	var walk func(items []mcode.CodeItem)
	walk = func(items []mcode.CodeItem) {
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.Straight:
				for _, in := range it.Instrs {
					for _, io := range in.IO {
						if io.Recv {
							manual = append(manual, cycle)
						}
					}
					cycle++
				}
			case *mcode.LoopItem:
				for k := int64(0); k < it.Trips; k++ {
					walk(it.Body)
				}
			}
		}
	}
	walk(res.Cell.Items)
	times := paper.Times(x, skew.Input)
	if len(times) != len(manual) {
		t.Fatalf("enumerated %d inputs, manual walk %d", len(times), len(manual))
	}
	for i := range manual {
		if times[i] != manual[i] {
			t.Errorf("input %d at %d, manual walk says %d", i, times[i], manual[i])
		}
	}
}

// TestTimingValid: the timed programs of every workload validate and
// their skew analysis terminates.
func TestTimingSelfSkew(t *testing.T) {
	res := compileCell(t, passSrc, Options{})
	x := skew.CellStreams(res.Cell).Timing()[w2.ChanX]
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := skew.NewAnalysis(x, x)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := a.MinSkewStats()
	if err != nil {
		t.Fatal(err)
	}
	if s < 1 {
		t.Errorf("forwarding program needs positive skew, got %d", s)
	}
	if _, err := a.CheckQueue(s, mcode.QueueDepth); err != nil {
		t.Errorf("computed skew fails its own queue check: %v", err)
	}
}

// TestPreambleLoadsConstants: constants used by the program are
// materialized once, before any use.
func TestPreambleLoadsConstants(t *testing.T) {
	res := compileCell(t, `
module t (xs in, ys out)
float xs[4];
float ys[4];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float v;
        int i;
        for i := 0 to 3 do begin
            receive (L, X, v, xs[i]);
            send (R, X, v * 2.5 + 2.5, ys[i]);
        end;
    end
    call f;
end
`, Options{})
	if len(res.ConstRegs) != 1 {
		t.Fatalf("constants: %d registers, want 1 (2.5 shared)", len(res.ConstRegs))
	}
	first, ok := res.Cell.Items[0].(*mcode.Straight)
	if !ok || !first.Instrs[0].HasLit || first.Instrs[0].Lit.Value != 2.5 {
		t.Error("constant preamble missing")
	}
}

// TestDedicatedScalarRegisters: scalars that cross blocks keep a stable
// home register.
func TestDedicatedScalarRegisters(t *testing.T) {
	res := compileCell(t, `
module t (xs in, ys out)
float xs[4];
float ys[4];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float acc, v;
        int i;
        acc := 0.0;
        for i := 0 to 3 do begin
            receive (L, X, v, xs[i]);
            acc := acc + v;
            send (R, X, acc, ys[i]);
        end;
    end
    call f;
end
`, Options{})
	if len(res.ScalarRegs) == 0 {
		t.Fatal("accumulator did not get a home register")
	}
}

// TestPipelineFallback: loops the modulo scheduler cannot handle
// (non-parallel subscripts) silently fall back to the plain schedule.
func TestPipelineFallback(t *testing.T) {
	res := compileCell(t, `
module t (xs in, ys out)
float xs[8];
float ys[8];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float v;
        float buf[16];
        int i;
        for i := 0 to 7 do begin
            receive (L, X, v, xs[i]);
            buf[i] := v;
            buf[14-i] := v + 1.0;
            send (R, X, buf[i], ys[i]);
        end;
    end
    call f;
end
`, Options{Pipeline: true})
	if res.PipelinedLoops != 0 {
		t.Error("non-parallel subscripts must not be pipelined")
	}
	if err := mcode.ValidateCell(res.Cell); err != nil {
		t.Error(err)
	}
}

// TestPipelineSkipsTinyTripCounts: loops with too few iterations to
// fill the software pipeline fall back.
func TestPipelineSkipsTinyTripCounts(t *testing.T) {
	res := compileCell(t, `
module t (xs in, ys out)
float xs[2];
float ys[2];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float v, w;
        int i;
        for i := 0 to 1 do begin
            receive (L, X, v, xs[i]);
            w := ((v * 2.0) + 1.0) * ((v - 1.0) + (v * v));
            send (R, X, w, ys[i]);
        end;
    end
    call f;
end
`, Options{Pipeline: true})
	if err := mcode.ValidateCell(res.Cell); err != nil {
		t.Error(err)
	}
}
