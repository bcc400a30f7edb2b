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
//
// Nodes come from per-kind slabs sized from the token counts before
// parsing starts (every binary operator token bounds the BinExprs, every
// identifier the VarRefs, every '[' the subscripts, and so on), and
// every list of statements or subscripts is one window of a shared
// backing array, so an expression or a statement costs no allocation of
// its own.  The slabs belong to the one module they build: the tree
// outlives the compile (a compiled program points into it), so nothing
// here is pooled.
type Parser struct {
	src   string
	toks  []Token
	pos   int
	depth int // open statements plus open unary/parenthesized/subscript expressions
	refs  int // VarRef IDs handed out
	loops int // ForStmt IDs handed out

	bins    slab[BinExpr]
	uns     slab[UnExpr]
	vars    slab[VarRef]
	ints    slab[IntLit]
	floats  slab[FloatLit]
	assigns slab[AssignStmt]
	ifs     slab[IfStmt]
	fors    slab[ForStmt]
	recvs   slab[ReceiveStmt]
	sends   slab[SendStmt]
	calls   slab[CallStmt]
	blocks  slab[BlockStmt]
	decls   slab[VarDecl]
	stmts   lists[Stmt]
	indices lists[Expr]
}

// newParser sizes the slabs from the token counts: each is an upper
// bound for a module that parses.
func newParser(src string, t tokens) *Parser {
	c := &t.count
	p := &Parser{src: src, toks: t.toks}
	p.bins.reserve(c[OR] + c[AND] + c[EQ] + c[NE] + c[LT] + c[LE] + c[GT] + c[GE] +
		c[PLUS] + c[MINUS] + c[STAR] + c[SLASH] + c[DIV] + c[MOD])
	p.uns.reserve(c[MINUS] + c[NOT])
	// Every send and receive names a direction and a channel, every
	// for, call and function one more identifier that is not a VarRef.
	p.vars.reserve(c[IDENT] - 2*(c[SEND]+c[RECEIVE]) - c[FOR] - c[CALL] - c[FUNCTION])
	p.ints.reserve(c[INTLIT])
	p.floats.reserve(c[FLOATLIT])
	p.assigns.reserve(c[ASSIGN] - c[FOR])
	p.ifs.reserve(c[IF])
	p.fors.reserve(c[FOR])
	p.recvs.reserve(c[RECEIVE])
	p.sends.reserve(c[SEND])
	p.calls.reserve(c[CALL])
	p.blocks.reserve(c[BEGIN] - c[FUNCTION] - c[CELLPROGRAM])
	p.stmts.store.reserve(c[ASSIGN] + c[IF] + c[RECEIVE] + c[SEND] + c[CALL] + c[BEGIN])
	p.indices.store.reserve(c[LBRACKET])
	return p
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
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := newParser(src, toks)
	m, err := p.parseModule()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != EOF {
		return nil, p.errf("unexpected %s after end of module", p.found())
	}
	m.refs, m.loops = p.refs, p.loops
	return m, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

// found describes the current token for a diagnostic: its kind, and
// its spelling for identifiers and literals.
func (p *Parser) found() string {
	switch t := p.cur(); t.Kind {
	case IDENT, INTLIT, FLOATLIT:
		return fmt.Sprintf("%s %q", t.Kind, p.text(t))
	default:
		return t.Kind.String()
	}
}

// text is a token's spelling.
func (p *Parser) text(t Token) string { return t.Text(p.src) }

func (p *Parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().Pos(), Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) expect(k TokenKind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, p.errf("expected %s, found %s", k, p.found())
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
	m := &Module{Name: p.text(name), Pos: start.Pos()}
	for p.cur().Kind != RPAREN {
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		param := &Param{Name: p.text(id), Pos: id.Pos()}
		switch p.cur().Kind {
		case IN:
			p.next()
		case OUT:
			p.next()
			param.Out = true
		default:
			return nil, p.errf("expected 'in' or 'out' after parameter %s", param.Name)
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
		if m.Decls, err = p.parseVarDecl(m.Decls); err != nil {
			return nil, err
		}
	}
	cp, err := p.parseCellProgram()
	if err != nil {
		return nil, err
	}
	m.Cells = cp
	return m, nil
}

// parseVarDecl parses "float a[10], b, c[2][3];" and appends one
// VarDecl per declarator to decls.
func (p *Parser) parseVarDecl(decls []*VarDecl) ([]*VarDecl, error) {
	var base Base
	switch p.cur().Kind {
	case FLOAT:
		base = BaseFloat
	case INT:
		base = BaseInt
	default:
		return nil, p.errf("expected type keyword, found %s", p.found())
	}
	p.next()
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
			dim, err := strconv.Atoi(p.text(n))
			if err != nil || dim <= 0 {
				return nil, &ParseError{Pos: n.Pos(), Msg: "array dimension must be a positive integer"}
			}
			typ.Dims = append(typ.Dims, dim)
			if _, err := p.expect(RBRACKET); err != nil {
				return nil, err
			}
			if len(typ.Dims) > 2 {
				return nil, &ParseError{Pos: n.Pos(), Msg: "arrays are limited to two dimensions"}
			}
		}
		d := p.decls.new()
		d.Name, d.Type, d.Pos = p.text(id), typ, id.Pos()
		decls = append(decls, d)
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
	cp := &CellProgram{CellID: p.text(id), First: first, Last: last, Pos: start.Pos()}
	for p.cur().Kind == FUNCTION {
		f, err := p.parseFunction()
		if err != nil {
			return nil, err
		}
		cp.Funcs = append(cp.Funcs, f)
	}
	if cp.Body, err = p.parseStmtList(false); err != nil {
		return nil, err
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
	n, err := strconv.Atoi(p.text(t))
	if err != nil {
		return 0, &ParseError{Pos: t.Pos(), Msg: "integer out of range"}
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
	f := &FuncDecl{Name: p.text(name), Pos: start.Pos()}
	for p.cur().Kind == FLOAT || p.cur().Kind == INT {
		if f.Locals, err = p.parseVarDecl(f.Locals); err != nil {
			return nil, err
		}
	}
	if f.Body, err = p.parseStmtList(false); err != nil {
		return nil, err
	}
	if _, err := p.expect(END); err != nil {
		return nil, err
	}
	p.accept(SEMICOLON)
	return f, nil
}

// parseStmtList parses statements up to an END, or also up to the end
// of input when orEOF is set.
func (p *Parser) parseStmtList(orEOF bool) ([]Stmt, error) {
	mark := p.stmts.mark()
	for k := p.cur().Kind; k != END && !(orEOF && k == EOF); k = p.cur().Kind {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts.push(s)
	}
	return p.stmts.finish(mark), nil
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
		s := p.calls.new()
		s.Name, s.Pos = p.text(name), t.Pos()
		return s, nil
	case BEGIN:
		t := p.next()
		body, err := p.parseStmtList(true)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(END); err != nil {
			return nil, err
		}
		p.accept(SEMICOLON)
		s := p.blocks.new()
		s.Body, s.Pos = body, t.Pos()
		return s, nil
	}
	return nil, p.errf("expected statement, found %s", p.found())
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
	s := p.assigns.new()
	s.LHS, s.RHS, s.Pos = lhs, rhs, lhs.Pos
	return s, nil
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
	s := p.ifs.new()
	s.Cond, s.Then, s.Pos = cond, p.flattenBlock(thenStmt), t.Pos()
	if p.accept(ELSE) {
		elseStmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s.Else = p.flattenBlock(elseStmt)
	}
	return s, nil
}

// flattenBlock unwraps a single BlockStmt into its statement list so
// that "if c then begin a; b end" yields [a; b] directly.
func (p *Parser) flattenBlock(s Stmt) []Stmt {
	if b, ok := s.(*BlockStmt); ok {
		return b.Body
	}
	mark := p.stmts.mark()
	p.stmts.push(s)
	return p.stmts.finish(mark)
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next() // for
	s := p.fors.new()
	s.Pos, s.ID = t.Pos(), p.loops
	p.loops++
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	s.Var = p.text(id)
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	if s.Lo, err = p.parseExpr(); err != nil {
		return nil, err
	}
	if _, err := p.expect(TO); err != nil {
		return nil, err
	}
	if s.Hi, err = p.parseExpr(); err != nil {
		return nil, err
	}
	if _, err := p.expect(DO); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s.Body = p.flattenBlock(body)
	return s, nil
}

func (p *Parser) parseDirection() (Direction, error) {
	t, err := p.expect(IDENT)
	if err != nil {
		return 0, err
	}
	switch p.text(t) {
	case "L", "l":
		return DirL, nil
	case "R", "r":
		return DirR, nil
	}
	return 0, &ParseError{Pos: t.Pos(), Msg: fmt.Sprintf("invalid direction %q (want L or R)", p.text(t))}
}

func (p *Parser) parseChannel() (Channel, error) {
	t, err := p.expect(IDENT)
	if err != nil {
		return 0, err
	}
	switch p.text(t) {
	case "X", "x":
		return ChanX, nil
	case "Y", "y":
		return ChanY, nil
	}
	return 0, &ParseError{Pos: t.Pos(), Msg: fmt.Sprintf("invalid channel %q (want X or Y)", p.text(t))}
}

// parseIOHead parses the "(dir, chan," that opens a send or receive.
func (p *Parser) parseIOHead() (Direction, Channel, error) {
	if _, err := p.expect(LPAREN); err != nil {
		return 0, 0, err
	}
	dir, err := p.parseDirection()
	if err != nil {
		return 0, 0, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return 0, 0, err
	}
	ch, err := p.parseChannel()
	if err != nil {
		return 0, 0, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return 0, 0, err
	}
	return dir, ch, nil
}

// parseIOTail parses the ");" that closes a send or receive.
func (p *Parser) parseIOTail() error {
	if _, err := p.expect(RPAREN); err != nil {
		return err
	}
	_, err := p.expect(SEMICOLON)
	return err
}

func (p *Parser) parseReceive() (Stmt, error) {
	t := p.next() // receive
	dir, ch, err := p.parseIOHead()
	if err != nil {
		return nil, err
	}
	lhs, err := p.parseVarRef()
	if err != nil {
		return nil, err
	}
	s := p.recvs.new()
	s.Dir, s.Chan, s.LHS, s.Pos = dir, ch, lhs, t.Pos()
	if p.accept(COMMA) {
		if s.External, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if err := p.parseIOTail(); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parseSend() (Stmt, error) {
	t := p.next() // send
	dir, ch, err := p.parseIOHead()
	if err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	s := p.sends.new()
	s.Dir, s.Chan, s.Value, s.Pos = dir, ch, val, t.Pos()
	if p.accept(COMMA) {
		if s.External, err = p.parseVarRef(); err != nil {
			return nil, err
		}
	}
	if err := p.parseIOTail(); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parseVarRef() (*VarRef, error) {
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	ref := p.vars.new()
	ref.Name, ref.Pos, ref.ID = p.text(id), id.Pos(), p.refs
	p.refs++
	mark := p.indices.mark()
	for p.accept(LBRACKET) {
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.indices.push(idx)
		if _, err := p.expect(RBRACKET); err != nil {
			return nil, err
		}
	}
	ref.Indices = p.indices.finish(mark)
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

// binary returns a BinExpr from the slab.
func (p *Parser) binary(op BinOp, l, r Expr, pos Pos) *BinExpr {
	e := p.bins.new()
	e.Op, e.L, e.R, e.Pos = op, l, r, pos
	return e
}

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == OR {
		pos := p.next().Pos()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = p.binary(OpOr, l, r, pos)
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseRel()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == AND {
		pos := p.next().Pos()
		r, err := p.parseRel()
		if err != nil {
			return nil, err
		}
		l = p.binary(OpAnd, l, r, pos)
	}
	return l, nil
}

// relOp maps a relational operator token to its BinOp.
func relOp(k TokenKind) (BinOp, bool) {
	switch k {
	case EQ:
		return OpEq, true
	case NE:
		return OpNe, true
	case LT:
		return OpLt, true
	case LE:
		return OpLe, true
	case GT:
		return OpGt, true
	case GE:
		return OpGe, true
	}
	return 0, false
}

func (p *Parser) parseRel() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if op, ok := relOp(p.cur().Kind); ok {
		pos := p.next().Pos()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return p.binary(op, l, r, pos), nil
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
		pos := p.next().Pos()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = p.binary(op, l, r, pos)
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
		pos := p.next().Pos()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = p.binary(op, l, r, pos)
	}
}

// parseUnary is on every cycle of the expression grammar (a nested
// unary, a parenthesis, a subscript), so it is where nesting is counted.
func (p *Parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if k := p.cur().Kind; k == MINUS || k == NOT {
		pos := p.next().Pos()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		e := p.uns.new()
		e.Neg, e.X, e.Pos = k == MINUS, x, pos
		return e, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.cur().Kind {
	case INTLIT:
		t := p.next()
		v, err := strconv.ParseInt(p.text(t), 10, 64)
		if err != nil {
			return nil, &ParseError{Pos: t.Pos(), Msg: "integer literal out of range"}
		}
		e := p.ints.new()
		e.Value, e.Pos = v, t.Pos()
		return e, nil
	case FLOATLIT:
		t := p.next()
		v, err := strconv.ParseFloat(p.text(t), 64)
		if err != nil {
			return nil, &ParseError{Pos: t.Pos(), Msg: "malformed float literal"}
		}
		e := p.floats.new()
		e.Value, e.Pos = v, t.Pos()
		return e, nil
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
	return nil, p.errf("expected expression, found %s", p.found())
}
