package commgraph

import (
	"fmt"
	"strings"
	"testing"

	"warp/internal/ir"
	"warp/internal/w2"
)

func buildSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	m, err := w2.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := w2.Analyze(m)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	p, err := ir.Build(info)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// TestFig51NoCycle: program A of Figure 5-1 — the sent data is
// unrelated to the received data, so the communication edge completes
// no cycle.
func TestFig51NoCycle(t *testing.T) {
	p := buildSrc(t, `
module a (xs in, ys out)
float xs[8];
float ys[8];
cellprogram (c : 0 : 3)
begin
    function f
    begin
        float v, acc;
        int i;
        acc := 1.0;
        for i := 0 to 7 do begin
            receive (L, X, v, xs[i]);
            acc := acc + 1.0;
            send (R, X, acc, ys[i]);
        end;
    end
    call f;
end
`)
	a := Analyze(p)
	if a.RightCycle {
		t.Error("independent send wrongly classified as a right cycle")
	}
	if !a.Mappable() || !a.Unidirectional() {
		t.Error("program A must be mappable and unidirectional")
	}
	if err := Check(p, 4); err != nil {
		t.Errorf("Check: %v", err)
	}
}

// TestFig51RightCycle: program B — each cell sends the data it
// receives, creating a right cycle (which forces skewing to the right
// and is fine on its own).
func TestFig51RightCycle(t *testing.T) {
	p := buildSrc(t, `
module b (xs in, ys out)
float xs[8];
float ys[8];
cellprogram (c : 0 : 3)
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
`)
	a := Analyze(p)
	if !a.RightCycle {
		t.Error("forwarding program must have a right cycle")
	}
	if a.LeftCycle {
		t.Error("no left cycle expected")
	}
	if !a.Mappable() {
		t.Error("a single right cycle is mappable")
	}
}

// TestCycleThroughScalarAcrossBlocks: the dependence from receive to
// send may pass through a scalar carried across basic blocks.
func TestCycleThroughScalarAcrossBlocks(t *testing.T) {
	p := buildSrc(t, `
module b (xs in, ys out)
float xs[8];
float ys[8];
cellprogram (c : 0 : 3)
begin
    function f
    begin
        float v, acc;
        int i;
        acc := 0.0;
        for i := 0 to 7 do begin
            receive (L, X, v, xs[i]);
            acc := acc + v;
        end;
        for i := 0 to 7 do
            send (R, X, acc, ys[i]);
    end
    call f;
end
`)
	a := Analyze(p)
	if !a.RightCycle {
		t.Error("cycle through the accumulator not detected")
	}
}

// TestCycleThroughMemory: the dependence may pass through cell memory.
func TestCycleThroughMemory(t *testing.T) {
	p := buildSrc(t, `
module b (xs in, ys out)
float xs[8];
float ys[8];
cellprogram (c : 0 : 3)
begin
    function f
    begin
        float v;
        float buf[8];
        int i;
        for i := 0 to 7 do begin
            receive (L, X, v, xs[i]);
            buf[i] := v;
        end;
        for i := 0 to 7 do
            send (R, X, buf[i], ys[i]);
    end
    call f;
end
`)
	a := Analyze(p)
	if !a.RightCycle {
		t.Error("cycle through cell memory not detected")
	}
}

// TestBidirectionalRejected: both right and left cycles — not mappable
// onto the skewed computation model (§5.1.1).
func TestBidirectionalRejected(t *testing.T) {
	p := buildSrc(t, `
module bidi (xs in, ys out)
float xs[8];
float ys[8];
cellprogram (c : 0 : 3)
begin
    function f
    begin
        float v, w;
        int i;
        for i := 0 to 7 do begin
            receive (L, X, v, xs[i]);
            send (R, X, v);
            receive (R, Y, w, xs[i]);
            send (L, Y, w, ys[i]);
        end;
    end
    call f;
end
`)
	a := Analyze(p)
	if !a.RightCycle || !a.LeftCycle {
		t.Fatalf("expected both cycles, got %+v", a)
	}
	if a.Mappable() {
		t.Error("both cycles must be unmappable")
	}
	err := Check(p, 4)
	if err == nil || !strings.Contains(err.Error(), "both right and left") {
		t.Errorf("Check error = %v", err)
	}
}

// TestConservationViolationRejected: unbalanced send/receive counts on
// a channel break homogeneity.
func TestConservationViolationRejected(t *testing.T) {
	p := buildSrc(t, `
module unbal (xs in, ys out)
float xs[8];
float ys[8];
cellprogram (c : 0 : 3)
begin
    function f
    begin
        float v;
        int i;
        for i := 0 to 7 do
            receive (L, X, v, xs[i]);
        send (R, X, v, ys[0]);
    end
    call f;
end
`)
	err := Check(p, 4)
	if err == nil || !strings.Contains(err.Error(), "conserve") {
		t.Errorf("Check error = %v, want conservation failure", err)
	}
	// The same program is fine on a single cell.
	if err := Check(p, 1); err != nil {
		t.Errorf("single-cell Check: %v", err)
	}
}

// TestAnalyzeCaseByCase pins the one traversal that answers both cycle
// questions: what depends on a receive from the left and what depends on
// a receive from the right are labelled apart, per function, and a cycle
// in any function is the program's.
func TestAnalyzeCaseByCase(t *testing.T) {
	program := func(funcs ...string) string {
		src := "module m (xs in, ys out)\nfloat xs[8];\nfloat ys[8];\ncellprogram (c : 0 : 3)\nbegin\n"
		for i, body := range funcs {
			src += fmt.Sprintf("function f%d\nbegin\nfloat v, w;\nint i;\nfor i := 0 to 7 do begin\n%s\nend;\nend\n", i, body)
		}
		for i := range funcs {
			src += fmt.Sprintf("call f%d;\n", i)
		}
		return src + "end\n"
	}
	const (
		right = "receive (L, X, v, xs[i]); send (R, X, v, ys[i]);"
		left  = "receive (R, Y, w, xs[i]); send (L, Y, w, ys[i]);"
		// Both directions in use, each send fed by the receive that
		// completes no cycle with it.
		crossed = "receive (L, X, v, xs[i]); receive (R, Y, w, xs[i]); send (R, X, w, ys[i]); send (L, Y, v);"
		quiet   = "v := 1.0;"
	)
	for _, tc := range []struct {
		name  string
		funcs []string
		want  Analysis
		check string // substring of Check's error on four cells; "" = accepted
	}{
		{"right cycle", []string{right},
			Analysis{UsesRightward: true, RightCycle: true}, ""},
		{"left cycle", []string{left},
			Analysis{UsesLeftward: true, LeftCycle: true}, ""},
		{"both cycles", []string{right + left},
			Analysis{UsesRightward: true, UsesLeftward: true, RightCycle: true, LeftCycle: true}, "both right and left"},
		{"both directions, no cycle", []string{crossed},
			Analysis{UsesRightward: true, UsesLeftward: true}, "both leftward and rightward"},
		{"cycle in the second function", []string{quiet, right},
			Analysis{UsesRightward: true, RightCycle: true}, ""},
		{"one cycle per function", []string{right, left},
			Analysis{UsesRightward: true, UsesLeftward: true, RightCycle: true, LeftCycle: true}, "both right and left"},
		{"right cycle twice", []string{right, right},
			Analysis{UsesRightward: true, RightCycle: true}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := buildSrc(t, program(tc.funcs...))
			if len(p.Funcs) != len(tc.funcs) {
				t.Fatalf("%d functions built, want %d", len(p.Funcs), len(tc.funcs))
			}
			a := Analyze(p)
			if a != tc.want {
				t.Errorf("Analyze = %+v, want %+v", a, tc.want)
			}
			err, pkgErr := a.Check(p, 4), Check(p, 4)
			if (err == nil) != (pkgErr == nil) || (err != nil && err.Error() != pkgErr.Error()) {
				t.Errorf("Analysis.Check says %v, Check says %v", err, pkgErr)
			}
			switch {
			case tc.check == "" && err != nil:
				t.Errorf("Check: %v", err)
			case tc.check != "" && (err == nil || !strings.Contains(err.Error(), tc.check)):
				t.Errorf("Check error = %v, want one naming %q", err, tc.check)
			}
		})
	}
}
