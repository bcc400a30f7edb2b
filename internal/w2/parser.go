package w2

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser for W2.  The dialect follows the
// paper's Figure 4-1; its grammar in EBNF (keywords case-insensitive,
// /*…*/ and -- comments):
//
//	module      = "module" ident "(" [param {"," param}] ")"
//	              {vardecl} cellprogram .
//	param       = ident ("in" | "out") .
//	vardecl     = ("float" | "int") declarator {"," declarator} ";" .
//	declarator  = ident {"[" intlit "]"}            (* ≤ 2 dimensions *)
//	cellprogram = "cellprogram" "(" ident ":" intlit ":" intlit ")"
//	              "begin" {function} {call} "end" [";"] .
//	function    = "function" ident "begin" {vardecl} {stmt} "end" [";"] .
//	call        = "call" ident ";" .
//	stmt        = assign | if | for | receive | send | call | block .
//	assign      = varref ":=" expr ";" .
//	if          = "if" expr "then" stmt ["else" stmt] .
//	for         = "for" ident ":=" expr "to" expr "do" stmt .
//	receive     = "receive" "(" dir "," chan "," varref ["," expr] ")" ";" .
//	send        = "send" "(" dir "," chan "," expr ["," varref] ")" ";" .
//	block       = "begin" {stmt} "end" [";"] .
//	dir         = "L" | "R" .          chan = "X" | "Y" .
//	varref      = ident {"[" expr "]"} .
//	expr        = orterm  {"or" orterm} .
//	orterm      = andterm {"and" andterm} .
//	andterm     = arith [relop arith] .
//	relop       = "=" | "<>" | "<" | "<=" | ">" | ">=" .
//	arith       = mul {("+" | "-") mul} .
//	mul         = unary {("*" | "/" | "div" | "mod") unary} .
//	unary       = ["-" | "not"] primary .
//	primary     = intlit | floatlit | varref | "(" expr ")" .
//
// Semantic analysis (sema.go) layers the §5.1 restrictions on top.
type Parser struct {
	toks  []Token
	pos   int
	depth int // open statements plus open unary/parenthesized/subscript expressions
}

// maxNesting bounds how deep statements and expressions may nest.  The
// parser (and every pass over the tree after it) recurses once per
// level, and a goroutine stack that outgrows its limit kills the
// process, past any recover: nesting must be refused here, as a syntax
// error.  No real W2 program comes near it (the paper's nest four deep).
const maxNesting = 200

// enter opens one nesting level; the caller defers p.leave().
func (p *Parser) enter() error {
	if p.depth++; p.depth > maxNesting {
		return p.errf("nesting deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

// ParseError describes a syntax error with its position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

// Parse parses a complete W2 module from source text.
func Parse(src string) (*Module, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	m, err := p.parseModule()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != EOF {
		return nil, p.errf("unexpected %s after end of module", p.cur())
	}
	return m, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) expect(k TokenKind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) accept(k TokenKind) bool {
	if p.cur().Kind == k {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) parseModule() (*Module, error) {
	start, err := p.expect(MODULE)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	m := &Module{Name: name.Text, Pos: start.Pos}
	for p.cur().Kind != RPAREN {
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		param := &Param{Name: id.Text, Pos: id.Pos}
		switch p.cur().Kind {
		case IN:
			p.next()
		case OUT:
			p.next()
			param.Out = true
		default:
			return nil, p.errf("expected 'in' or 'out' after parameter %s", id.Text)
		}
		m.Params = append(m.Params, param)
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	// Module-level declarations (host arrays).
	for p.cur().Kind == FLOAT || p.cur().Kind == INT {
		decls, err := p.parseVarDecl()
		if err != nil {
			return nil, err
		}
		m.Decls = append(m.Decls, decls...)
	}
	cp, err := p.parseCellProgram()
	if err != nil {
		return nil, err
	}
	m.Cells = cp
	return m, nil
}

// parseVarDecl parses "float a[10], b, c[2][3];" into one VarDecl per
// declarator.
func (p *Parser) parseVarDecl() ([]*VarDecl, error) {
	var base Base
	switch p.cur().Kind {
	case FLOAT:
		base = BaseFloat
	case INT:
		base = BaseInt
	default:
		return nil, p.errf("expected type keyword, found %s", p.cur())
	}
	p.next()
	var decls []*VarDecl
	for {
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		typ := Type{Base: base}
		for p.accept(LBRACKET) {
			n, err := p.expect(INTLIT)
			if err != nil {
				return nil, err
			}
			dim, err := strconv.Atoi(n.Text)
			if err != nil || dim <= 0 {
				return nil, &ParseError{Pos: n.Pos, Msg: "array dimension must be a positive integer"}
			}
			typ.Dims = append(typ.Dims, dim)
			if _, err := p.expect(RBRACKET); err != nil {
				return nil, err
			}
			if len(typ.Dims) > 2 {
				return nil, &ParseError{Pos: n.Pos, Msg: "arrays are limited to two dimensions"}
			}
		}
		decls = append(decls, &VarDecl{Name: id.Text, Type: typ, Pos: id.Pos})
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(SEMICOLON); err != nil {
		return nil, err
	}
	return decls, nil
}

func (p *Parser) parseCellProgram() (*CellProgram, error) {
	start, err := p.expect(CELLPROGRAM)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	first, err := p.parseIntToken()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	last, err := p.parseIntToken()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if _, err := p.expect(BEGIN); err != nil {
		return nil, err
	}
	cp := &CellProgram{CellID: id.Text, First: first, Last: last, Pos: start.Pos}
	for p.cur().Kind == FUNCTION {
		f, err := p.parseFunction()
		if err != nil {
			return nil, err
		}
		cp.Funcs = append(cp.Funcs, f)
	}
	for p.cur().Kind != END {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		cp.Body = append(cp.Body, s)
	}
	if _, err := p.expect(END); err != nil {
		return nil, err
	}
	p.accept(SEMICOLON)
	return cp, nil
}

func (p *Parser) parseIntToken() (int, error) {
	neg := p.accept(MINUS)
	t, err := p.expect(INTLIT)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, &ParseError{Pos: t.Pos, Msg: "integer out of range"}
	}
	if neg {
		n = -n
	}
	return n, nil
}

func (p *Parser) parseFunction() (*FuncDecl, error) {
	start, err := p.expect(FUNCTION)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(BEGIN); err != nil {
		return nil, err
	}
	f := &FuncDecl{Name: name.Text, Pos: start.Pos}
	for p.cur().Kind == FLOAT || p.cur().Kind == INT {
		decls, err := p.parseVarDecl()
		if err != nil {
			return nil, err
		}
		f.Locals = append(f.Locals, decls...)
	}
	for p.cur().Kind != END {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		f.Body = append(f.Body, s)
	}
	if _, err := p.expect(END); err != nil {
		return nil, err
	}
	p.accept(SEMICOLON)
	return f, nil
}

func (p *Parser) parseStmtList(terminators ...TokenKind) ([]Stmt, error) {
	var stmts []Stmt
	isTerm := func(k TokenKind) bool {
		for _, t := range terminators {
			if k == t {
				return true
			}
		}
		return k == EOF
	}
	for !isTerm(p.cur().Kind) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.cur().Kind {
	case IDENT:
		return p.parseAssign()
	case IF:
		return p.parseIf()
	case FOR:
		return p.parseFor()
	case RECEIVE:
		return p.parseReceive()
	case SEND:
		return p.parseSend()
	case CALL:
		t := p.next()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMICOLON); err != nil {
			return nil, err
		}
		return &CallStmt{Name: name.Text, Pos: t.Pos}, nil
	case BEGIN:
		t := p.next()
		body, err := p.parseStmtList(END)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(END); err != nil {
			return nil, err
		}
		p.accept(SEMICOLON)
		return &BlockStmt{Body: body, Pos: t.Pos}, nil
	}
	return nil, p.errf("expected statement, found %s", p.cur())
}

func (p *Parser) parseAssign() (Stmt, error) {
	lhs, err := p.parseVarRef()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMICOLON); err != nil {
		return nil, err
	}
	return &AssignStmt{LHS: lhs, RHS: rhs, Pos: lhs.Pos}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next() // if
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(THEN); err != nil {
		return nil, err
	}
	thenStmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Cond: cond, Then: flattenBlock(thenStmt), Pos: t.Pos}
	if p.accept(ELSE) {
		elseStmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s.Else = flattenBlock(elseStmt)
	}
	return s, nil
}

// flattenBlock unwraps a single BlockStmt into its statement list so
// that "if c then begin a; b end" yields [a; b] directly.
func flattenBlock(s Stmt) []Stmt {
	if b, ok := s.(*BlockStmt); ok {
		return b.Body
	}
	return []Stmt{s}
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next() // for
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TO); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(DO); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Var: id.Text, Lo: lo, Hi: hi, Body: flattenBlock(body), Pos: t.Pos}, nil
}

func (p *Parser) parseDirection() (Direction, error) {
	t, err := p.expect(IDENT)
	if err != nil {
		return 0, err
	}
	switch t.Text {
	case "L", "l":
		return DirL, nil
	case "R", "r":
		return DirR, nil
	}
	return 0, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("invalid direction %q (want L or R)", t.Text)}
}

func (p *Parser) parseChannel() (Channel, error) {
	t, err := p.expect(IDENT)
	if err != nil {
		return 0, err
	}
	switch t.Text {
	case "X", "x":
		return ChanX, nil
	case "Y", "y":
		return ChanY, nil
	}
	return 0, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("invalid channel %q (want X or Y)", t.Text)}
}

func (p *Parser) parseReceive() (Stmt, error) {
	t := p.next() // receive
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	dir, err := p.parseDirection()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return nil, err
	}
	ch, err := p.parseChannel()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return nil, err
	}
	lhs, err := p.parseVarRef()
	if err != nil {
		return nil, err
	}
	s := &ReceiveStmt{Dir: dir, Chan: ch, LHS: lhs, Pos: t.Pos}
	if p.accept(COMMA) {
		ext, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.External = ext
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMICOLON); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parseSend() (Stmt, error) {
	t := p.next() // send
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	dir, err := p.parseDirection()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return nil, err
	}
	ch, err := p.parseChannel()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	s := &SendStmt{Dir: dir, Chan: ch, Value: val, Pos: t.Pos}
	if p.accept(COMMA) {
		ext, err := p.parseVarRef()
		if err != nil {
			return nil, err
		}
		s.External = ext
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMICOLON); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parseVarRef() (*VarRef, error) {
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	ref := &VarRef{Name: id.Text, Pos: id.Pos}
	for p.accept(LBRACKET) {
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ref.Indices = append(ref.Indices, idx)
		if _, err := p.expect(RBRACKET); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// Expression grammar, lowest to highest precedence:
//
//	expr    := orExpr
//	orExpr  := andExpr { "or" andExpr }
//	andExpr := relExpr { "and" relExpr }
//	relExpr := addExpr [ relop addExpr ]
//	addExpr := mulExpr { ("+"|"-") mulExpr }
//	mulExpr := unary { ("*"|"/"|"div"|"mod") unary }
//	unary   := ["-"|"not"] primary
//	primary := literal | varref | "(" expr ")"
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == OR {
		pos := p.next().Pos
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: OpOr, L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseRel()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == AND {
		pos := p.next().Pos
		r, err := p.parseRel()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: OpAnd, L: l, R: r, Pos: pos}
	}
	return l, nil
}

var relOps = map[TokenKind]BinOp{
	EQ: OpEq, NE: OpNe, LT: OpLt, LE: OpLe, GT: OpGt, GE: OpGe,
}

func (p *Parser) parseRel() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if op, ok := relOps[p.cur().Kind]; ok {
		pos := p.next().Pos
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: op, L: l, R: r, Pos: pos}, nil
	}
	return l, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == PLUS || p.cur().Kind == MINUS {
		op := OpAdd
		if p.cur().Kind == MINUS {
			op = OpSub
		}
		pos := p.next().Pos
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().Kind {
		case STAR:
			op = OpMul
		case SLASH:
			op = OpDivide
		case DIV:
			op = OpIntDiv
		case MOD:
			op = OpMod
		default:
			return l, nil
		}
		pos := p.next().Pos
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r, Pos: pos}
	}
}

// parseUnary is on every cycle of the expression grammar (a nested
// unary, a parenthesis, a subscript), so it is where nesting is counted.
func (p *Parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.cur().Kind {
	case MINUS:
		pos := p.next().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Neg: true, X: x, Pos: pos}, nil
	case NOT:
		pos := p.next().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Neg: false, X: x, Pos: pos}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.cur().Kind {
	case INTLIT:
		t := p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, &ParseError{Pos: t.Pos, Msg: "integer literal out of range"}
		}
		return &IntLit{Value: v, Pos: t.Pos}, nil
	case FLOATLIT:
		t := p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, &ParseError{Pos: t.Pos, Msg: "malformed float literal"}
		}
		return &FloatLit{Value: v, Pos: t.Pos}, nil
	case IDENT:
		return p.parseVarRef()
	case LPAREN:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("expected expression, found %s", p.cur())
}
