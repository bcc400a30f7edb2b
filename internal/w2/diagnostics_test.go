package w2

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/diagnostics.golden")

// module wraps a cellprogram body (functions and calls) into a module
// with one in and one out parameter.
func module(cells string) string {
	return "module m (xs in, ys out)\nfloat xs[4];\nfloat ys[4];\ncellprogram (cid : 0 : 1)\nbegin\n" + cells + "\nend\n"
}

// diagnostics is one malformed source per front-end rejection: every
// lexer error, every parser error and every reachable errAt of sema.go.
// The rest cannot be reached from source: the parser always builds a
// cellprogram, calls parseVarDecl only on a type keyword and parses a
// send external as a variable reference (so sema's "send external must
// name a host location" never fires), and sema's fallbacks for an
// unknown statement, expression or symbol kind need a hand-built tree.
var diagnostics = []struct{ name, src string }{
	// Lexer.
	{"lex/unterminated comment", "module m /* never closed\n(xs in)"},
	{"lex/unexpected character", "module m (xs in)\nfloat xs[4] ? ;"},
	{"lex/unexpected character in body", minimal("v := 1.0 # 2.0;")},

	// Parser.
	{"parse/expected module", "cellprogram"},
	{"parse/module name", "module 42 ()"},
	{"parse/param mode", "module m (xs inout)"},
	{"parse/param list", "module m (xs in ys out)"},
	{"parse/dimension zero", "module m (xs in)\nfloat xs[0];"},
	{"parse/dimension overflow", "module m (xs in)\nfloat xs[99999999999999999999];"},
	{"parse/three dimensions", "module m (xs in)\nfloat xs[2][2][2];"},
	{"parse/declarator", "module m (xs in)\nfloat 4;"},
	{"parse/declaration end", "module m (xs in)\nfloat xs[4]\ncellprogram"},
	{"parse/cellprogram expected", "module m (xs in)\nfloat xs[4];\nfunction f"},
	{"parse/cell range overflow", "module m (xs in)\nfloat xs[4];\ncellprogram (cid : 0 : 99999999999999999999)"},
	{"parse/cell range token", "module m (xs in)\nfloat xs[4];\ncellprogram (cid : 0 : x)"},
	{"parse/function name", module("function begin end")},
	{"parse/statement", minimal("1.0 := v;")},
	{"parse/statement keyword", minimal("then v := 1.0;")},
	{"parse/assign operator", minimal("v = 1.0;")},
	{"parse/missing semicolon", minimal("v := 1.0\nw := 2.0;")},
	{"parse/expression", minimal("v := ;")},
	{"parse/close paren", minimal("v := (1.0 + 2.0;")},
	{"parse/close bracket", minimal("v := buf[1;")},
	{"parse/integer literal out of range", minimal("v := 99999999999999999999;")},
	{"parse/malformed float literal", minimal("v := 1e999;")},
	{"parse/invalid direction", minimal("send (U, X, v);")},
	{"parse/invalid channel", minimal("send (R, Z, v);")},
	{"parse/direction token", minimal("send (1, X, v);")},
	{"parse/receive lvalue", minimal("receive (L, X, 1.0);")},
	{"parse/for to", minimal("for i := 0 do v := 1.0;")},
	{"parse/if then", minimal("if v < w v := 1.0;")},
	{"parse/call name", minimal("call ;")},
	{"parse/block end", minimal("begin v := 1.0;")},
	{"parse/after module", module("function f begin float v; v := 1.0; end\ncall f;") + "module"},
	{"parse/statement nesting", minimal(strings.Repeat("begin ", 201) + strings.Repeat("end ", 201))},
	{"parse/expression nesting", minimal("v := " + strings.Repeat("(", 201) + "1.0" + strings.Repeat(")", 201) + ";")},
	{"parse/unary nesting", minimal("v := " + strings.Repeat("- ", 201) + "1.0;")},

	// Sema: the module.
	{"sema/cellprogram start", "module m (xs in)\nfloat xs[4];\ncellprogram (cid : 1 : 3)\nbegin\nfunction f begin float v; v := 1.0; end\ncall f;\nend"},
	{"sema/cellprogram empty", "module m (xs in)\nfloat xs[4];\ncellprogram (cid : 0 : -1)\nbegin\nfunction f begin float v; v := 1.0; end\ncall f;\nend"},
	{"sema/duplicate declaration", "module m (xs in)\nfloat xs[4];\nfloat xs[2];\ncellprogram (cid : 0 : 0)\nbegin\nfunction f begin float v; v := 1.0; end\ncall f;\nend"},
	{"sema/parameter without declaration", "module m (xs in, zs in)\nfloat xs[4];\ncellprogram (cid : 0 : 0)\nbegin\nfunction f begin float v; v := 1.0; end\ncall f;\nend"},
	{"sema/int host parameter", "module m (xs in)\nint xs[4];\ncellprogram (cid : 0 : 0)\nbegin\nfunction f begin float v; v := 1.0; end\ncall f;\nend"},
	{"sema/module variable not a parameter", "module m (xs in)\nfloat xs[4], bs[4];\ncellprogram (cid : 0 : 0)\nbegin\nfunction f begin float v; v := 1.0; end\ncall f;\nend"},
	{"sema/duplicate function", module("function f begin float v; v := 1.0; end\nfunction f begin float v; v := 2.0; end\ncall f;")},
	{"sema/top-level statement", module("function f begin float v; v := 1.0; end\nbegin end;")},
	{"sema/undefined function", module("function f begin float v; v := 1.0; end\ncall g;")},
	{"sema/no call", module("function f begin float v; v := 1.0; end")},

	// Sema: declarations.
	{"sema/duplicate local", module("function f begin float v, v; v := 1.0; end\ncall f;")},
	{"sema/local shadows host", module("function f begin float xs; xs := 1.0; end\ncall f;")},
	{"sema/int cell array", module("function f begin int a[4]; float v; v := 1.0; end\ncall f;")},
	{"sema/cell memory", module("function f begin float a[64][65]; float v; v := 1.0; end\ncall f;")},

	// Sema: statements.
	{"sema/undefined variable", minimal("q := 1.0;")},
	{"sema/assign to loop variable", minimal("i := 1.0;")},
	{"sema/assign bool", minimal("v := v < w;")},
	{"sema/float condition", minimal("if v then v := 1.0;")},
	{"sema/for variable undeclared", minimal("for k := 0 to 1 do v := 1.0;")},
	{"sema/for variable float", minimal("for v := 0 to 1 do w := 1.0;")},
	{"sema/loop variable reused", minimal("for i := 0 to 1 do for i := 0 to 1 do v := 1.0;")},
	{"sema/empty loop", minimal("for i := 3 to 1 do v := 1.0;")},
	{"sema/dynamic bound", minimal("for i := 0 to 15 do for j := 0 to i do v := 1.0;")},
	{"sema/receive into loop variable", minimal("receive (L, X, i, xs[0]);")},
	{"sema/send bool", minimal("send (R, X, v < w);")},
	{"sema/nested call", minimal("call f;")},
	{"sema/io under if", minimal("if v < w then begin v := 1.0; receive (L, X, w, xs[0]); end")},
	{"sema/io under else", minimal("if v < w then v := 1.0 ; else send (R, X, v);")},
	{"sema/io in loop under if", minimal("if v < w then for i := 0 to 1 do send (R, X, v);")},
	{"sema/io in nested if", minimal("if v < w then if w < v then begin send (R, X, v); end")},

	// Sema: lvalues.
	{"sema/assign to host", minimal("xs[0] := 1.0;")},
	{"sema/assign to cell id", minimal("cid := 1.0;")},
	{"sema/scalar subscripted", minimal("v[0] := 1.0;")},
	{"sema/lvalue dimensions", minimal("buf[0][1] := 1.0;")},
	{"sema/lvalue subscript range", minimal("for i := 0 to 15 do buf[i] := 1.0;")},

	// Sema: subscripts.
	{"sema/loop variable subscripted", minimal("for i := 0 to 1 do buf[i[0]] := 1.0;")},
	{"sema/loop variable outside loop", minimal("for i := 0 to 1 do v := 1.0; buf[i] := 1.0;")},
	{"sema/cell id in subscript", minimal("buf[cid] := 1.0;")},
	{"sema/float scalar in subscript", minimal("buf[v] := 1.0;")},
	{"sema/not in subscript", minimal("buf[not 1] := 1.0;")},
	{"sema/negated subscript", minimal("for i := 0 to 1 do buf[-i] := 1.0;")},
	{"sema/quadratic subscript", minimal("for i := 0 to 1 do for j := 0 to 1 do buf[i*j] := 1.0;")},
	{"sema/division in subscript", minimal("for i := 0 to 1 do buf[i div 2] := 1.0;")},
	{"sema/float literal in subscript", minimal("buf[1.0] := 1.0;")},
	{"sema/undefined in subscript", minimal("buf[q] := 1.0;")},
	{"sema/subtracted subscript range", minimal("for i := 0 to 3 do buf[i - 1] := 1.0;")},
	{"sema/scaled subscript range", minimal("for i := 0 to 3 do buf[2*i] := 1.0;")},
	// 4·2⁶² wraps to 0, and 10·2⁶¹ to 2⁶²: the range must not wrap.
	{"sema/subscript range overflow", minimal("for i := 0 to 4 do buf[i*4611686018427387904] := 1.0;")},
	{"sema/subscript range overflow wrapping past the bound", minimal("for i := 0 to 10 do buf[i*2305843009213693952] := 1.0;")},

	// Sema: values.
	{"sema/host in computation", minimal("v := xs[0];")},
	{"sema/scalar value subscripted", minimal("v := w[0];")},
	{"sema/loop variable in computation", minimal("for i := 0 to 3 do v := v + i;")},
	{"sema/cell id in computation", minimal("v := cid;")},
	{"sema/unary minus of bool", minimal("v := -(v < w);")},
	{"sema/not of float", minimal("if not v then v := 1.0;")},
	{"sema/comparison of bools", minimal("if (v < w) < (w < v) then v := 1.0;")},
	{"sema/and of floats", minimal("if v and w then v := 1.0;")},
	{"sema/or of floats", minimal("if v or (v < w) then v := 1.0;")},
	{"sema/div in computation", minimal("v := v div w;")},
	{"sema/mod in computation", minimal("v := v mod w;")},
	{"sema/arithmetic on bools", minimal("v := (v < w) + 1.0;")},
	{"sema/array value dimensions", minimal("v := buf[0][0];")},
	{"sema/undefined in expression", minimal("v := q + 1.0;")},

	// Sema: externals.
	{"parse/send float literal external", minimal("send (R, X, v, 1.0);")},
	{"parse/send int literal external", minimal("send (R, X, v, 1);")},
	{"sema/external not host", minimal("receive (L, X, v, buf[0]);")},
	{"sema/send external in-param", minimal("send (R, X, v, xs[0]);")},
	{"sema/receive external out-param", minimal("receive (L, X, v, ys[0]);")},
	{"sema/external dimensions", minimal("receive (L, X, v, xs[0][1]);")},
	{"sema/external subscript range", minimal("for i := 0 to 16 do receive (L, X, v, xs[i]);")},
	{"sema/invalid external", minimal("receive (L, X, v, 1.0 + 2.0);")},
	{"sema/undefined external", minimal("receive (L, X, v, zs[0]);")},
	{"sema/external subscript not affine", minimal("receive (L, X, v, xs[v]);")},
}

// TestDiagnosticsGolden pins the full text of every front-end rejection,
// position included, in testdata/diagnostics.golden.  Refresh it with
// `go test ./internal/w2 -run TestDiagnosticsGolden -update` only when a
// message is meant to change.
func TestDiagnosticsGolden(t *testing.T) {
	var sb strings.Builder
	seen := map[string]bool{}
	for _, d := range diagnostics {
		if seen[d.name] {
			t.Fatalf("duplicate case %q", d.name)
		}
		seen[d.name] = true
		m, err := Parse(d.src)
		if err == nil {
			_, err = Analyze(m)
		}
		if err == nil {
			t.Errorf("%s: accepted", d.name)
			continue
		}
		fmt.Fprintf(&sb, "%s: %s\n", d.name, err)
	}
	got := sb.String()
	path := filepath.Join("testdata", "diagnostics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
