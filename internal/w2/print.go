package w2

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a module back to W2 source text in a canonical layout.
// Printing a parsed module and re-parsing it yields a structurally
// identical tree (round-trip property, tested with random programs),
// which makes Print usable as a formatter (cmd/w2fmt).
func Print(m *Module) string {
	p := &printer{}
	p.module(m)
	return p.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) line(format string, args ...any) {
	p.sb.WriteString(strings.Repeat("    ", p.indent))
	fmt.Fprintf(&p.sb, format, args...)
	p.sb.WriteByte('\n')
}

func (p *printer) module(m *Module) {
	var params []string
	for _, pr := range m.Params {
		mode := "in"
		if pr.Out {
			mode = "out"
		}
		params = append(params, pr.Name+" "+mode)
	}
	p.line("module %s (%s)", m.Name, strings.Join(params, ", "))
	for _, d := range m.Decls {
		p.line("%s %s;", d.Type.Base, declarator(d))
	}
	p.line("cellprogram (%s : %d : %d)", m.Cells.CellID, m.Cells.First, m.Cells.Last)
	p.line("begin")
	p.indent++
	for _, f := range m.Cells.Funcs {
		p.function(f)
	}
	for _, s := range m.Cells.Body {
		p.stmt(s)
	}
	p.indent--
	p.line("end")
}

func declarator(d *VarDecl) string {
	s := d.Name
	for _, dim := range d.Type.Dims {
		s += "[" + strconv.Itoa(dim) + "]"
	}
	return s
}

func (p *printer) function(f *FuncDecl) {
	p.line("function %s", f.Name)
	p.line("begin")
	p.indent++
	// Group locals by base type, arrays separate, preserving order.
	for _, d := range f.Locals {
		p.line("%s %s;", d.Type.Base, declarator(d))
	}
	for _, s := range f.Body {
		p.stmt(s)
	}
	p.indent--
	p.line("end")
}

func (p *printer) stmts(body []Stmt) {
	p.line("begin")
	p.indent++
	for _, s := range body {
		p.stmt(s)
	}
	p.indent--
	p.line("end;")
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *AssignStmt:
		p.line("%s := %s;", ExprString(s.LHS), ExprString(s.RHS))
	case *IfStmt:
		p.line("if %s then", ExprString(s.Cond))
		p.stmts(s.Then)
		if len(s.Else) > 0 {
			p.line("else")
			p.stmts(s.Else)
		}
	case *ForStmt:
		p.line("for %s := %s to %s do", s.Var, ExprString(s.Lo), ExprString(s.Hi))
		p.stmts(s.Body)
	case *ReceiveStmt:
		if s.External != nil {
			p.line("receive (%s, %s, %s, %s);", s.Dir, s.Chan, ExprString(s.LHS), ExprString(s.External))
		} else {
			p.line("receive (%s, %s, %s);", s.Dir, s.Chan, ExprString(s.LHS))
		}
	case *SendStmt:
		if s.External != nil {
			p.line("send (%s, %s, %s, %s);", s.Dir, s.Chan, ExprString(s.Value), ExprString(s.External))
		} else {
			p.line("send (%s, %s, %s);", s.Dir, s.Chan, ExprString(s.Value))
		}
	case *CallStmt:
		p.line("call %s;", s.Name)
	case *BlockStmt:
		p.stmts(s.Body)
	}
}

// ExprString renders an expression with explicit parentheses around
// every binary operation, so precedence survives re-parsing exactly.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *IntLit:
		return strconv.FormatInt(e.Value, 10)
	case *FloatLit:
		s := strconv.FormatFloat(e.Value, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *VarRef:
		s := e.Name
		for _, idx := range e.Indices {
			s += "[" + ExprString(idx) + "]"
		}
		return s
	case *BinExpr:
		return "(" + ExprString(e.L) + " " + e.Op.String() + " " + ExprString(e.R) + ")"
	case *UnExpr:
		if e.Neg {
			return "(-" + ExprString(e.X) + ")"
		}
		return "(not " + ExprString(e.X) + ")"
	}
	return "?"
}
