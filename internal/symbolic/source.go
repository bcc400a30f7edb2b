// Package symbolic is the ${...} placeholder preprocessor.
//
// A symbolic source is W2 text in which integer positions may be
// written as ${expr} placeholders over named bound parameters — loop
// trip counts, array dimensions, the cell range — e.g.
//
//	float a[${n}][${n}];
//	for i := 0 to ${n-1} do begin ... end;
//
// Substituting a concrete bound vector yields ordinary W2 source, which
// the ordinary verified compiler compiles (warp.Template).  Nothing
// here knows about schedules or microcode: a size-parameterized program
// is text substitution in front of warp.Compile.  (PRs 10–17 carried an
// engine here that fitted closed forms to probe compiles and cloned
// artifacts from them; DESIGN §14 records why it was removed.)
package symbolic

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Source is a parsed symbolic source: the raw template text and the
// bound parameters it references, in sorted order.
type Source struct {
	Text   string
	Params []string

	// chunks is the alternation of literal text and placeholder
	// expressions: literal[0] expr[0] literal[1] expr[1] ... literal[n].
	literals []string
	exprs    []*boundExpr
}

// ParseSource splits template text into literal chunks and placeholder
// expressions.  Placeholder syntax is ${expr} where expr is an integer
// expression over parameter names, integer literals, + - * / and
// parentheses, at most maxExprTerms terms long (/ is exact integer
// division at substitution time: Concrete rejects a remainder, as it
// rejects int64 overflow).
func ParseSource(text string) (*Source, error) {
	s := &Source{Text: text}
	params := map[string]bool{}
	rest := text
	for {
		i := strings.Index(rest, "${")
		if i < 0 {
			s.literals = append(s.literals, rest)
			break
		}
		j := strings.Index(rest[i:], "}")
		if j < 0 {
			return nil, fmt.Errorf("symbolic: unterminated ${ placeholder")
		}
		exprText := rest[i+2 : i+j]
		e, err := parseBoundExpr(exprText)
		if err != nil {
			if len(exprText) > 40 {
				exprText = exprText[:40] + "…"
			}
			return nil, fmt.Errorf("symbolic: placeholder ${%s} at offset %d: %w", exprText, len(text)-len(rest)+i, err)
		}
		s.literals = append(s.literals, rest[:i])
		s.exprs = append(s.exprs, e)
		for _, p := range e.params() {
			params[p] = true
		}
		rest = rest[i+j+1:]
	}
	if len(s.exprs) == 0 {
		return nil, fmt.Errorf("symbolic: source has no ${...} placeholders")
	}
	for p := range params {
		s.Params = append(s.Params, p)
	}
	sort.Strings(s.Params)
	return s, nil
}

// Concrete substitutes a bound vector, returning ordinary W2 source.
// Every template parameter must be present in bounds; extra names are
// rejected so a typo ("m" for "n") fails loudly instead of silently
// compiling the wrong program.
func (s *Source) Concrete(bounds map[string]int64) (string, error) {
	for name := range bounds {
		if !contains(s.Params, name) {
			return "", fmt.Errorf("symbolic: bound %q is not a template parameter (template has %s)",
				name, strings.Join(s.Params, ", "))
		}
	}
	for _, p := range s.Params {
		if _, ok := bounds[p]; !ok {
			return "", fmt.Errorf("symbolic: missing bound for template parameter %q", p)
		}
	}
	var sb strings.Builder
	for i, lit := range s.literals {
		sb.WriteString(lit)
		if i < len(s.exprs) {
			v, err := s.exprs[i].eval(bounds)
			if err != nil {
				return "", err
			}
			sb.WriteString(strconv.FormatInt(v, 10))
		}
	}
	return sb.String(), nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// boundExpr is a parsed placeholder expression tree.
type boundExpr struct {
	op    byte // 0 = leaf
	lit   int64
	param string
	l, r  *boundExpr
}

func (e *boundExpr) params() []string {
	if e == nil {
		return nil
	}
	if e.op == 0 {
		if e.param != "" {
			return []string{e.param}
		}
		return nil
	}
	return append(e.l.params(), e.r.params()...)
}

func (e *boundExpr) eval(bounds map[string]int64) (int64, error) {
	if e.op == 0 {
		if e.param != "" {
			v, ok := bounds[e.param]
			if !ok {
				return 0, fmt.Errorf("symbolic: missing bound %q", e.param)
			}
			return v, nil
		}
		return e.lit, nil
	}
	l, err := e.l.eval(bounds)
	if err != nil {
		return 0, err
	}
	r, err := e.r.eval(bounds)
	if err != nil {
		return 0, err
	}
	// The substituted text must be the integer the expression denotes:
	// a wrapped or truncated value would compile a different program
	// than the one asked for, silently.
	var v int64
	ok := true
	switch e.op {
	case '+':
		v = l + r
		ok = (v >= l) == (r >= 0)
	case '-':
		v = l - r
		ok = (v <= l) == (r >= 0)
	case '*':
		v = l * r
		ok = l == 0 || v/l == r && !(l == -1 && r == math.MinInt64)
	case '/':
		if r == 0 {
			return 0, fmt.Errorf("symbolic: division by zero in placeholder")
		}
		if l%r != 0 {
			return 0, fmt.Errorf("symbolic: %d / %d in placeholder is not an integer", l, r)
		}
		v = l / r
		ok = !(l == math.MinInt64 && r == -1)
	default:
		return 0, fmt.Errorf("symbolic: bad operator %q", e.op)
	}
	if !ok {
		return 0, fmt.Errorf("symbolic: %d %c %d in placeholder overflows int64", l, e.op, r)
	}
	return v, nil
}

// parseBoundExpr is a tiny precedence-climbing parser for placeholder
// expressions: ident | int | expr (+|-|*|/) expr | (expr) | -expr.
func parseBoundExpr(text string) (*boundExpr, error) {
	p := &exprParser{src: text}
	e, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("trailing %q", p.src[p.pos:])
	}
	return e, nil
}

type exprParser struct {
	src   string
	pos   int
	terms int
}

// maxExprTerms bounds one placeholder expression.  Every operand,
// parenthesis and unary minus is a term, so the bound holds for the
// parser's recursion (one level per "(" or "-") and for the depth of
// the tree eval walks (one level per operator) alike: a request body of
// "((((…" or "1+1+1+…" is a parse error, not a stack the size of the
// body.  Real placeholders have a handful of terms.
const maxExprTerms = 256

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *exprParser) parseSum() (*boundExpr, error) {
	l, err := p.parseProduct()
	if err != nil {
		return nil, err
	}
	for {
		switch c := p.peek(); c {
		case '+', '-':
			p.pos++
			r, err := p.parseProduct()
			if err != nil {
				return nil, err
			}
			l = &boundExpr{op: c, l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *exprParser) parseProduct() (*boundExpr, error) {
	l, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch c := p.peek(); c {
		case '*', '/':
			p.pos++
			r, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			l = &boundExpr{op: c, l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *exprParser) parseAtom() (*boundExpr, error) {
	if p.terms++; p.terms > maxExprTerms {
		return nil, fmt.Errorf("expression has more than %d terms (at offset %d)", maxExprTerms, p.pos)
	}
	switch c := p.peek(); {
	case c == '(':
		p.pos++
		e, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("missing )")
		}
		p.pos++
		return e, nil
	case c == '-':
		p.pos++
		e, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		return &boundExpr{op: '-', l: &boundExpr{}, r: e}, nil
	case c >= '0' && c <= '9':
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		v, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
		if err != nil {
			return nil, err
		}
		return &boundExpr{lit: v}, nil
	case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		start := p.pos
		for p.pos < len(p.src) && (p.src[p.pos] == '_' ||
			p.src[p.pos] >= 'a' && p.src[p.pos] <= 'z' ||
			p.src[p.pos] >= 'A' && p.src[p.pos] <= 'Z' ||
			p.src[p.pos] >= '0' && p.src[p.pos] <= '9') {
			p.pos++
		}
		return &boundExpr{param: p.src[start:p.pos]}, nil
	case c == 0:
		return nil, fmt.Errorf("empty expression")
	default:
		return nil, fmt.Errorf("unexpected %q", c)
	}
}
