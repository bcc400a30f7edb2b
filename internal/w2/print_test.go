package w2

import (
	"math/rand"
	"testing"
)

// TestPrintRoundTripPaperProgram: parse → print → parse yields a
// structurally identical tree.
func TestPrintRoundTripPaperProgram(t *testing.T) {
	src := minimal(`
        receive (L, X, v, xs[0]);
        for i := 0 to 14 do begin
            receive (L, X, w, xs[i]);
            if w < v then begin
                v := w * 2.0;
            end else v := (v + w) - 0.5;
            buf[2] := v;
            send (R, X, buf[2], ys[i]);
        end;
        send (R, X, v, ys[15]);
`)
	m1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(m1)
	m2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse failed: %v\nprinted:\n%s", err, printed)
	}
	if !EqualModule(m1, m2) {
		t.Fatalf("round trip changed the tree:\n%s", printed)
	}
	// Printing must be a fixed point.
	if Print(m2) != printed {
		t.Error("printer is not idempotent")
	}
}

// randExprSrc builds a random expression string for round-trip fuzzing.
func randExprSrc(r *rand.Rand, depth int) string {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return []string{"1.5", "0.25", "3.0", "42.0"}[r.Intn(4)]
		case 1:
			return []string{"v", "w"}[r.Intn(2)]
		default:
			return "buf[1]"
		}
	}
	op := []string{"+", "-", "*", "/"}[r.Intn(4)]
	return "(" + randExprSrc(r, depth-1) + " " + op + " " + randExprSrc(r, depth-1) + ")"
}

// TestPrintRoundTripRandom fuzzes the round trip over random statement
// mixes.
func TestPrintRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for k := 0; k < 60; k++ {
		body := ""
		for n := 1 + r.Intn(6); n > 0; n-- {
			switch r.Intn(5) {
			case 0:
				body += "v := " + randExprSrc(r, 3) + ";\n"
			case 1:
				body += "if " + randExprSrc(r, 2) + " < " + randExprSrc(r, 2) +
					" then w := " + randExprSrc(r, 2) + "; else w := 0.0;\n"
			case 2:
				body += "for i := 0 to 3 do begin receive (L, X, v, xs[i]); send (R, X, v); end;\n"
			case 3:
				body += "receive (L, Y, w, 0.5);\nsend (R, Y, w);\n"
			case 4:
				body += "buf[3] := " + randExprSrc(r, 2) + ";\n"
			}
		}
		src := minimal(body)
		m1, err := Parse(src)
		if err != nil {
			t.Fatalf("program %d: %v\n%s", k, err, src)
		}
		printed := Print(m1)
		m2, err := Parse(printed)
		if err != nil {
			t.Fatalf("program %d re-parse: %v\n%s", k, err, printed)
		}
		if !EqualModule(m1, m2) {
			t.Fatalf("program %d: round trip changed the tree\noriginal:\n%s\nprinted:\n%s", k, src, printed)
		}
	}
}

// TestPrintPreservesSemantics: the printed form of a random program
// still analyzes identically (same host layout).
func TestPrintPreservesSemantics(t *testing.T) {
	src := minimal("receive (L, X, v, xs[3]); send (R, X, v + 1.0, ys[3]);")
	m1, _ := Parse(src)
	info1, err := Analyze(m1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Parse(Print(m1))
	if err != nil {
		t.Fatal(err)
	}
	info2, err := Analyze(m2)
	if err != nil {
		t.Fatal(err)
	}
	if info1.HostSize != info2.HostSize || len(info1.Uses) != len(info2.Uses) {
		t.Error("analysis differs after round trip")
	}
}

// EqualModule reports structural equality of two modules (positions
// ignored).  It backs the print/parse round-trip property.
func EqualModule(a, b *Module) bool {
	if a.Name != b.Name || len(a.Params) != len(b.Params) || len(a.Decls) != len(b.Decls) {
		return false
	}
	for i := range a.Params {
		if a.Params[i].Name != b.Params[i].Name || a.Params[i].Out != b.Params[i].Out {
			return false
		}
	}
	for i := range a.Decls {
		if !equalDecl(a.Decls[i], b.Decls[i]) {
			return false
		}
	}
	ca, cb := a.Cells, b.Cells
	if ca.CellID != cb.CellID || ca.First != cb.First || ca.Last != cb.Last ||
		len(ca.Funcs) != len(cb.Funcs) || len(ca.Body) != len(cb.Body) {
		return false
	}
	for i := range ca.Funcs {
		fa, fb := ca.Funcs[i], cb.Funcs[i]
		if fa.Name != fb.Name || len(fa.Locals) != len(fb.Locals) {
			return false
		}
		for j := range fa.Locals {
			if !equalDecl(fa.Locals[j], fb.Locals[j]) {
				return false
			}
		}
		if !equalStmts(fa.Body, fb.Body) {
			return false
		}
	}
	return equalStmts(ca.Body, cb.Body)
}

func equalDecl(a, b *VarDecl) bool {
	if a.Name != b.Name || a.Type.Base != b.Type.Base || len(a.Type.Dims) != len(b.Type.Dims) {
		return false
	}
	for i := range a.Type.Dims {
		if a.Type.Dims[i] != b.Type.Dims[i] {
			return false
		}
	}
	return true
}

func equalStmts(a, b []Stmt) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalStmt(a[i], b[i]) {
			return false
		}
	}
	return true
}

func equalStmt(a, b Stmt) bool {
	switch a := a.(type) {
	case *AssignStmt:
		b, ok := b.(*AssignStmt)
		return ok && equalExpr(a.LHS, b.LHS) && equalExpr(a.RHS, b.RHS)
	case *IfStmt:
		b, ok := b.(*IfStmt)
		return ok && equalExpr(a.Cond, b.Cond) && equalStmts(a.Then, b.Then) && equalStmts(a.Else, b.Else)
	case *ForStmt:
		b, ok := b.(*ForStmt)
		return ok && a.Var == b.Var && equalExpr(a.Lo, b.Lo) && equalExpr(a.Hi, b.Hi) && equalStmts(a.Body, b.Body)
	case *ReceiveStmt:
		b, ok := b.(*ReceiveStmt)
		return ok && a.Dir == b.Dir && a.Chan == b.Chan && equalExpr(a.LHS, b.LHS) && equalOptExpr(a.External, b.External)
	case *SendStmt:
		b, ok := b.(*SendStmt)
		if !ok || a.Dir != b.Dir || a.Chan != b.Chan || !equalExpr(a.Value, b.Value) {
			return false
		}
		if (a.External == nil) != (b.External == nil) {
			return false
		}
		return a.External == nil || equalExpr(a.External, b.External)
	case *CallStmt:
		b, ok := b.(*CallStmt)
		return ok && a.Name == b.Name
	case *BlockStmt:
		b, ok := b.(*BlockStmt)
		return ok && equalStmts(a.Body, b.Body)
	}
	return false
}

func equalOptExpr(a, b Expr) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || equalExpr(a, b)
}

func equalExpr(a, b Expr) bool {
	switch a := a.(type) {
	case *IntLit:
		b, ok := b.(*IntLit)
		return ok && a.Value == b.Value
	case *FloatLit:
		switch b := b.(type) {
		case *FloatLit:
			return a.Value == b.Value
		}
		return false
	case *VarRef:
		b, ok := b.(*VarRef)
		if !ok || a.Name != b.Name || len(a.Indices) != len(b.Indices) {
			return false
		}
		for i := range a.Indices {
			if !equalExpr(a.Indices[i], b.Indices[i]) {
				return false
			}
		}
		return true
	case *BinExpr:
		b, ok := b.(*BinExpr)
		return ok && a.Op == b.Op && equalExpr(a.L, b.L) && equalExpr(a.R, b.R)
	case *UnExpr:
		b, ok := b.(*UnExpr)
		return ok && a.Neg == b.Neg && equalExpr(a.X, b.X)
	}
	return false
}
