package w2

import (
	"errors"
	"strings"
	"testing"
)

// minimal wraps a statement list into a compilable module skeleton.
func minimal(body string) string {
	return `
module t (xs in, ys out)
float xs[16];
float ys[16];
cellprogram (cid : 0 : 1)
begin
    function f
    begin
        float v, w;
        float buf[4];
        int i, j;
` + body + `
    end
    call f;
end
`
}

func mustParse(t *testing.T, src string) *Module {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func TestParseModuleShape(t *testing.T) {
	m := mustParse(t, minimal("v := 1.0;"))
	if m.Name != "t" {
		t.Errorf("module name %q", m.Name)
	}
	if len(m.Params) != 2 || m.Params[0].Out || !m.Params[1].Out {
		t.Errorf("params broken: %+v", m.Params)
	}
	if m.Cells.First != 0 || m.Cells.Last != 1 || m.Cells.CellID != "cid" {
		t.Errorf("cellprogram header broken: %+v", m.Cells)
	}
	if len(m.Cells.Funcs) != 1 || m.Cells.Funcs[0].Name != "f" {
		t.Errorf("functions broken")
	}
	if len(m.Cells.Body) != 1 {
		t.Errorf("top-level body broken")
	}
}

func TestParseDeclarators(t *testing.T) {
	m := mustParse(t, minimal("v := 1.0;"))
	f := m.Cells.Funcs[0]
	byName := map[string]*VarDecl{}
	for _, d := range f.Locals {
		byName[d.Name] = d
	}
	if byName["buf"].Type.String() != "float[4]" {
		t.Errorf("buf type %s", byName["buf"].Type)
	}
	if byName["i"].Type.Base != BaseInt {
		t.Errorf("i should be int")
	}
	if byName["v"].Type.IsArray() {
		t.Errorf("v should be scalar")
	}
}

func TestParse2DArray(t *testing.T) {
	src := `
module t (m in, o out)
float m[3][5];
float o[3][5];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float v;
        int i, j;
        for i := 0 to 2 do
            for j := 0 to 4 do begin
                receive (L, X, v, m[i][j]);
                send (R, X, v, o[i][j]);
            end;
    end
    call f;
end
`
	m := mustParse(t, src)
	d := m.Decls[0]
	if d.Type.String() != "float[3][5]" || d.Type.Size() != 15 {
		t.Errorf("2-d type broken: %s size %d", d.Type, d.Type.Size())
	}
}

func TestParsePrecedence(t *testing.T) {
	m := mustParse(t, minimal("v := 1.0 + 2.0 * 3.0;"))
	asg := m.Cells.Funcs[0].Body[0].(*AssignStmt)
	add := asg.RHS.(*BinExpr)
	if add.Op != OpAdd {
		t.Fatalf("top op %s, want +", add.Op)
	}
	if mul, ok := add.R.(*BinExpr); !ok || mul.Op != OpMul {
		t.Fatalf("* must bind tighter than +")
	}
}

func TestParseParenthesesOverridePrecedence(t *testing.T) {
	m := mustParse(t, minimal("v := (1.0 + 2.0) * 3.0;"))
	asg := m.Cells.Funcs[0].Body[0].(*AssignStmt)
	mul := asg.RHS.(*BinExpr)
	if mul.Op != OpMul {
		t.Fatalf("top op %s, want *", mul.Op)
	}
	if add, ok := mul.L.(*BinExpr); !ok || add.Op != OpAdd {
		t.Fatalf("parenthesized + must be the left operand")
	}
}

func TestParseRelationalAndBoolean(t *testing.T) {
	m := mustParse(t, minimal("if v < 1.0 and not (w > 2.0) or v = w then v := 0.0;"))
	ifs := m.Cells.Funcs[0].Body[0].(*IfStmt)
	or, ok := ifs.Cond.(*BinExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top boolean op must be or, got %T", ifs.Cond)
	}
}

func TestParseIfElse(t *testing.T) {
	m := mustParse(t, minimal(`
        if v < w then begin
            v := 1.0;
            w := 2.0;
        end else w := v;
`))
	ifs := m.Cells.Funcs[0].Body[0].(*IfStmt)
	if len(ifs.Then) != 2 || len(ifs.Else) != 1 {
		t.Fatalf("then %d stmts, else %d; want 2 and 1", len(ifs.Then), len(ifs.Else))
	}
}

func TestParseForLoop(t *testing.T) {
	m := mustParse(t, minimal("for i := 1 to 9 do v := v + 1.0;"))
	f := m.Cells.Funcs[0].Body[0].(*ForStmt)
	if f.Var != "i" || len(f.Body) != 1 {
		t.Fatalf("for loop broken: %+v", f)
	}
}

func TestParseReceiveSendForms(t *testing.T) {
	m := mustParse(t, minimal(`
        receive (L, X, v, xs[0]);
        receive (L, Y, w, 0.0);
        receive (L, X, buf[1]);
        send (R, X, v);
        send (R, Y, v + w, ys[0]);
`))
	body := m.Cells.Funcs[0].Body
	r0 := body[0].(*ReceiveStmt)
	if r0.Dir != DirL || r0.Chan != ChanX || r0.External == nil {
		t.Errorf("receive 0 broken: %+v", r0)
	}
	r1 := body[1].(*ReceiveStmt)
	if _, ok := r1.External.(*FloatLit); !ok {
		t.Errorf("receive 1 literal external broken")
	}
	r2 := body[2].(*ReceiveStmt)
	if r2.External != nil || len(r2.LHS.Indices) != 1 {
		t.Errorf("receive 2 broken: %+v", r2)
	}
	s0 := body[3].(*SendStmt)
	if s0.External != nil || s0.Dir != DirR {
		t.Errorf("send 0 broken")
	}
	s1 := body[4].(*SendStmt)
	if s1.External == nil || s1.Chan != ChanY {
		t.Errorf("send 1 broken")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"missing module", "begin end", "expected module"},
		{"bad param mode", "module m (a inout)", "'in' or 'out'"},
		{"bad direction", minimal("receive (Q, X, v);"), "invalid direction"},
		{"bad channel", minimal("receive (L, Z, v);"), "invalid channel"},
		{"missing semicolon", minimal("v := 1.0"), "expected ;"},
		{"stray token after end", minimal("v := 1.0;") + " extra", "after end of module"},
		{"3-d array", strings.Replace(minimal("v := 1.0;"), "float buf[4];", "float buf[2][2][2];", 1), "two dimensions"},
		{"zero dim", strings.Replace(minimal("v := 1.0;"), "float buf[4];", "float buf[0];", 1), "positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestParseNegativeLiteralBound(t *testing.T) {
	// Unary minus in expressions.
	m := mustParse(t, minimal("v := -w + -(1.5);"))
	asg := m.Cells.Funcs[0].Body[0].(*AssignStmt)
	if _, ok := asg.RHS.(*BinExpr); !ok {
		t.Fatal("expected binary expression")
	}
}

// TestParseNestingBound: nesting is refused at maxNesting with a
// positioned syntax error, however it is spelled — the 2 MiB of "("
// that used to overflow the parser's stack (fatal, past any recover)
// included — and accepted just below it.
func TestParseNestingBound(t *testing.T) {
	nest := func(open, close string, n int) string {
		return "v := " + strings.Repeat(open, n) + "w" + strings.Repeat(close, n) + ";"
	}
	deepFor := func(n int) string {
		return strings.Repeat("for i := 0 to 1 do ", n) + "v := w;"
	}
	for _, c := range []struct{ name, body string }{
		{"parentheses", nest("(", ")", maxNesting)},
		{"unary minus", nest("- ", "", maxNesting)},
		{"subscripts", nest("buf[", "]", maxNesting)},
		{"for statements", deepFor(maxNesting)},
		{"2 MiB of (", "v := " + strings.Repeat("(", 2<<20)},
	} {
		_, err := Parse(minimal(c.body))
		var perr *ParseError
		if !errors.As(err, &perr) || !strings.Contains(perr.Msg, "nesting deeper than") || perr.Pos.Line == 0 {
			t.Errorf("%s: err = %v, want a positioned nesting error", c.name, err)
		}
	}
	// The innermost statement and its operand are levels too.
	for _, body := range []string{nest("(", ")", maxNesting-2), deepFor(maxNesting - 2)} {
		if _, err := Parse(minimal(body)); err != nil {
			t.Errorf("nesting just under the bound rejected: %v", err)
		}
	}
}

// TestTokenizeAllocatesOnce: the token slice's capacity is set from the
// source length, so lexing a module is one allocation.
func TestTokenizeAllocatesOnce(t *testing.T) {
	src := minimal(strings.Repeat("v := (v + w) * buf[0] - 2.0;\n", 50))
	if n := testing.AllocsPerRun(20, func() { Tokenize(src) }); n != 1 {
		t.Errorf("Tokenize made %.0f allocations, want 1", n)
	}
}

// TestFrontEndAllocationsIndependentOfSize: nodes come from slabs sized
// from the token counts and the side tables are sized once, so a module
// with a hundred times the statements and expressions costs the parser
// and sema only the logarithmic growth of their scratch stacks and of
// the affine term arena.
func TestFrontEndAllocationsIndependentOfSize(t *testing.T) {
	body := func(n int) string {
		return minimal(strings.Repeat("for i := 0 to 3 do begin\n v := (v + w) * buf[i] - 2.0;\n send (R, X, v, ys[i]);\nend;\n", n))
	}
	allocs := func(src string) (parse, sema float64) {
		parse = testing.AllocsPerRun(10, func() { mustParse(t, src) })
		m := mustParse(t, src)
		sema = testing.AllocsPerRun(10, func() {
			if _, err := Analyze(m); err != nil {
				t.Fatal(err)
			}
		})
		return parse, sema
	}
	p1, s1 := allocs(body(10))
	p100, s100 := allocs(body(1000))
	t.Logf("parse %.0f → %.0f, sema %.0f → %.0f allocations for 10 → 1000 loops", p1, p100, s1, s100)
	if p100 > p1+16 || s100 > s1+16 {
		t.Errorf("parse %.0f → %.0f, sema %.0f → %.0f allocations for 10 → 1000 loops, want at most 16 more", p1, p100, s1, s100)
	}
}
