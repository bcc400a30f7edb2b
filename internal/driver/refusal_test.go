package driver

import (
	"fmt"
	"strings"
	"testing"

	"warp/internal/workloads"
)

// TestCompileRefusalTexts pins the exact text of one refusal from each
// place a compile can stop: the option check, the parser, sema, the
// communication check, cellgen's register file, the cycle-count overflow
// the IU code generator refuses, the skew search's work budget and the
// skew stage's bound on a forwarded queue.  Pipelining is on where named, so every refusal after the
// front end is the one a failed plain retry reports.
func TestCompileRefusalTexts(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		opts      Options
		want      string
	}{
		{"cells", workloads.Polynomial(10, 100), Options{Cells: -1}, "invalid cell count -1"},
		{"syntax", "module", Options{}, "1:7: syntax error: expected identifier, found end of file"},
		{"sema", twoCells("float v;", "v := q;"), Options{}, "8:14: undefined variable q"},
		{"leftward", twoCells("float v;\n        int i;", "for i := 0 to 3 do begin\n            receive (R, X, v, a[i]);\n            send (L, X, v, b[i]);\n        end;"), Options{}, "driver: program sends data leftward; this compiler (like its examples) supports rightward flow only"},
		{"overflow", overflowNest, Options{Pipeline: true}, "iugen: loop L2: the cycle count overflows 64 bits"},
		{"registers", registerHog(70), Options{Pipeline: true}, "cellgen: block b0 needs more than 64 temporary registers (no spill path to cell memory is implemented; restructure the program)"},
		{"address-range", farExternal, Options{}, "11:34: subscript 4611686018427387904*i of x: its range overflows 64 bits"},
		{"skew-budget", halves(1 << 17), Options{}, "driver: channel X: skew: queue not analyzed within the budget of 4194304 evaluations (the sends and receives share no loop period)"},
		{"forwarded-queue", halves(1 << 7), Options{}, "driver: Sig queue: skew: queue needs 256 words but the hardware provides 128 (queue overflow)"},
	} {
		if _, err := Compile(tc.src, tc.opts); fmt.Sprint(err) != tc.want {
			t.Errorf("%s: err = %q\nwant %q", tc.name, fmt.Sprint(err), tc.want)
		}
	}
}

// twoCells is a two-cell module with input a and output b whose one
// function declares decls and runs body.
func twoCells(decls, body string) string {
	return fmt.Sprintf(`module m (a in, b out)
float a[4];
float b[4];
cellprogram (c : 0 : 1)
begin
    function f begin
        %s
        %s
    end
    call f;
end
`, decls, body)
}

// overflowNest runs 2²¹ · 2²¹ · 2²¹ iterations: the cycle count
// overflows 64 bits at loop L2 (loops are numbered innermost first).
const overflowNest = `module ovf (x in, y out)
float x[1];
float y[1];
cellprogram (cid : 0 : 0)
begin
    function f
    begin
        float r;
        int i, j, k;
        receive (L, X, r, x[0]);
        for i := 0 to 2097151 do begin
            for j := 0 to 2097151 do begin
                for k := 0 to 2097151 do begin
                    r := r * 0.5;
                end;
            end;
        end;
        send (R, X, r, y[0]);
    end
    call f;
end
`

// halves receives 2n words two an iteration, then sends them one an
// iteration: the sends and receives of X repeat with periods that do not
// divide, so at the skew that covers every receive the queue's walk is as
// long as the stream.  Past n = 2¹⁶ the skew search runs into its budget
// (the class whose verifier-level text verify's
// TestQueueUnprovenDiagnostic pins); below it, from n = 2⁷, the skew
// leaves more loop signals in one window than the forwarded Sig queue
// holds.
func halves(n int) string {
	return fmt.Sprintf(`module halves (x in, y out)
float x[%d];
float y[%d];
cellprogram (c : 0 : 1)
begin
    function f
    begin
        float t, u;
        int i, j;
        for i := 0 to %d do begin
            receive (L, X, t, x[2*i]);
            receive (L, X, u, x[2*i+1]);
        end;
        for j := 0 to %d do begin
            send (R, X, t, y[j]);
        end;
    end
    call f;
end
`, 2*n, 2*n, n-1, 2*n-1)
}

// farExternal receives x[i·2⁶²] for i up to 4: the subscript's range
// leaves 64 bits, which semantic analysis refuses (wrapping, it would
// see the range as [0,0], within x).
const farExternal = `module far (x in, y out)
float x[1];
float y[1];
cellprogram (cid : 0 : 0)
begin
    function f
    begin
        float r;
        int i;
        for i := 0 to 4 do begin
            receive (L, X, r, x[i*4611686018427387904]);
        end;
        send (R, X, r, y[0]);
    end
    call f;
end
`

// registerHog receives n values before it sends any back, in reverse
// order, so that all n are live at once.
func registerHog(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module hog (xs in, ys out)\nfloat xs[%d];\nfloat ys[%d];\ncellprogram (c : 0 : 0)\nbegin\n    function f\n    begin\n        float v0", n, n)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, ", v%d", i)
	}
	b.WriteString(";\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "        receive (L, X, v%d, xs[%d]);\n", i, i)
	}
	for i := n - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "        send (R, X, v%d, ys[%d]);\n", i, n-1-i)
	}
	b.WriteString("    end\n    call f;\nend\n")
	return b.String()
}

// TestForwardedQueueRefusedAtSkew pins the Sig overflow of halves to the
// skew stage across its range: the verifier proves the same queue with
// the same evaluation, so no such program reaches it.
func TestForwardedQueueRefusedAtSkew(t *testing.T) {
	for _, n := range []int{1 << 7, 1 << 10, 1 << 16} {
		_, err := Compile(halves(n), Options{})
		if msg := fmt.Sprint(err); !strings.HasPrefix(msg, "driver: Sig queue: skew: queue needs ") {
			t.Errorf("halves(%d): err = %q, want the skew stage's Sig queue refusal", n, msg)
		}
	}
}
