package warp_test

import (
	"strings"
	"testing"

	"warp"
	"warp/internal/interp"
	"warp/internal/workloads"
)

// TestPublicAPI walks the exported surface end to end.
func TestPublicAPI(t *testing.T) {
	src := workloads.Polynomial(10, 50)
	prog, err := warp.Compile(src, warp.Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Cells() != 10 {
		t.Errorf("Cells = %d, want 10", prog.Cells())
	}
	if prog.Skew() < 1 {
		t.Errorf("Skew = %d, want >= 1", prog.Skew())
	}

	params := prog.Params()
	if len(params) != 3 {
		t.Fatalf("Params: %d, want 3", len(params))
	}
	byName := map[string]warp.ParamInfo{}
	for _, p := range params {
		byName[p.Name] = p
	}
	if byName["z"].Out || byName["z"].Size != 50 {
		t.Errorf("param z wrong: %+v", byName["z"])
	}
	if !byName["results"].Out {
		t.Errorf("param results should be out")
	}

	inputs := map[string][]float64{
		"z": make([]float64, 50),
		"c": make([]float64, 10),
	}
	for i := range inputs["z"] {
		inputs["z"][i] = float64(i%7) / 2
	}
	for i := range inputs["c"] {
		inputs["c"][i] = float64(i + 1)
	}
	out, stats, err := prog.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles <= 0 {
		t.Error("no cycles reported")
	}
	ref, err := interp.RunSource(src, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref["results"] {
		if out["results"][i] != ref["results"][i] {
			t.Fatalf("results[%d]: %v vs %v", i, out["results"][i], ref["results"][i])
		}
	}

	m := prog.Metrics()
	if m.Name != "polynomial" || m.CellInstrs == 0 || m.IUInstrs == 0 || m.W2Lines == 0 {
		t.Errorf("metrics incomplete: %+v", m)
	}
	if m.CompileTime <= 0 {
		t.Error("compile time not measured")
	}
	if !strings.Contains(prog.CellListing(), "recv") {
		t.Error("cell listing empty")
	}
	if !strings.Contains(prog.IUListing(), "sig") {
		t.Error("IU listing empty")
	}
	for _, ch := range []rune{'X', 'Y'} {
		if prog.ChannelTiming(ch) == nil {
			t.Errorf("no timing for channel %c", ch)
		}
	}
	if prog.ChannelTiming('Z') != nil {
		t.Error("bogus channel accepted")
	}
}

// TestCompileErrorsSurface checks that front-end, restriction and
// code-generation errors all reach the API caller.
func TestCompileErrorsSurface(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"syntax", "module", "syntax error"},
		{"semantic", `
module m (a in)
float a[4];
cellprogram (c : 0 : 1)
begin
    function f begin
        float v;
        v := q;
    end
    call f;
end`, "undefined"},
		{"leftward flow", `
module m (a in, b out)
float a[4];
float b[4];
cellprogram (c : 0 : 1)
begin
    function f begin
        float v;
        int i;
        for i := 0 to 3 do begin
            receive (R, X, v, a[i]);
            send (L, X, v, b[i]);
        end;
    end
    call f;
end`, "rightward"},
		{"unbalanced stream", `
module m (a in, b out)
float a[4];
float b[4];
cellprogram (c : 0 : 1)
begin
    function f begin
        float v;
        int i;
        for i := 0 to 3 do
            receive (L, X, v, a[i]);
        send (R, X, v, b[0]);
    end
    call f;
end`, "conserve"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := warp.Compile(c.src, warp.Options{})
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestCellsOverride runs the polynomial program on fewer cells than
// declared: still homogeneous and correct (each cell evaluates a prefix
// of the coefficients; the results differ from the 10-cell ones, but
// simulation and interpretation must still agree... the interpreter
// honors the declared array size, so instead we check the override is
// respected structurally).
func TestCellsOverride(t *testing.T) {
	prog, err := warp.Compile(workloads.Polynomial(10, 20), warp.Options{Cells: 4})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Cells() != 4 {
		t.Errorf("Cells = %d, want 4", prog.Cells())
	}
}
