package w2

import (
	"fmt"
	"math"
)

// LexError describes a lexical error with its position.
type LexError struct {
	Pos Pos
	Msg string
}

func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }

// tokens is a lexed source: every token up to and including EOF in one
// slice, and how many tokens of each kind it holds (the parser sizes its
// node slabs from these counts).
type tokens struct {
	toks  []Token
	count [numKinds]int
}

// Tokenize lexes the whole input, returning all tokens up to and
// including the EOF token.
func Tokenize(src string) ([]Token, error) {
	t, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	return t.toks, nil
}

// tokenize lexes src into one token slice whose capacity is set from
// the source length, so a typical source never regrows it.  It
// supports the comment syntax used in the paper's listings: /* ... */
// block comments (non-nesting) and -- line comments as a convenience.
// Columns count bytes from 1.
func tokenize(src string) (tokens, error) {
	var t tokens
	if len(src) > math.MaxInt32 {
		// Token spans are 32-bit; a W2 source is a few kilobytes.
		return t, &LexError{Pos: Pos{Line: 1, Col: 1}, Msg: "source longer than 2 GiB"}
	}
	// W2 sources run 2.2 to 6.6 bytes a token.
	t.toks = make([]Token, 0, len(src)/2+16)
	off, line, lineStart := 0, 1, 0
	for {
		// Space and comments.
		for off < len(src) {
			c := src[off]
			if c == '\n' {
				off++
				line, lineStart = line+1, off
			} else if c == ' ' || c == '\t' || c == '\r' {
				off++
			} else if c == '/' && off+1 < len(src) && src[off+1] == '*' {
				startPos := Pos{Line: line, Col: off - lineStart + 1}
				off += 2
				for {
					if off+1 >= len(src) {
						return t, &LexError{Pos: startPos, Msg: "unterminated comment"}
					}
					if src[off] == '*' && src[off+1] == '/' {
						off += 2
						break
					}
					if src[off] == '\n' {
						line, lineStart = line+1, off+1
					}
					off++
				}
			} else if c == '-' && off+1 < len(src) && src[off+1] == '-' {
				for off < len(src) && src[off] != '\n' {
					off++
				}
			} else {
				break
			}
		}
		start := off
		if off >= len(src) {
			t.toks = append(t.toks, Token{Kind: EOF, Line: int32(line), Col: int32(start - lineStart + 1), Off: int32(start), End: int32(off)})
			t.count[EOF]++
			return t, nil
		}
		c := src[off]
		off++
		var k TokenKind
		switch c {
		case '(':
			k = LPAREN
		case ')':
			k = RPAREN
		case '[':
			k = LBRACKET
		case ']':
			k = RBRACKET
		case ',':
			k = COMMA
		case ';':
			k = SEMICOLON
		case ':':
			k = COLON
			if off < len(src) && src[off] == '=' {
				off++
				k = ASSIGN
			}
		case '+':
			k = PLUS
		case '-':
			k = MINUS
		case '*':
			k = STAR
		case '/':
			k = SLASH
		case '=':
			k = EQ
		case '<':
			k = LT
			if off < len(src) && src[off] == '=' {
				off++
				k = LE
			} else if off < len(src) && src[off] == '>' {
				off++
				k = NE
			}
		case '>':
			k = GT
			if off < len(src) && src[off] == '=' {
				off++
				k = GE
			}
		default:
			switch {
			case isLetter(c):
				for off < len(src) && (isLetter(src[off]) || isDigit(src[off])) {
					off++
				}
				k = keyword(src[start:off])
			case isDigit(c):
				off, k = lexNumber(src, off)
			default:
				return t, &LexError{Pos: Pos{Line: line, Col: start - lineStart + 1}, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
		t.toks = append(t.toks, Token{Kind: k, Line: int32(line), Col: int32(start - lineStart + 1), Off: int32(start), End: int32(off)})
		t.count[k]++
	}
}

// lexNumber returns the end and the kind of the number whose first
// digit ends at off: digits, an optional fraction (a '.' followed by a
// digit) and an optional exponent (e[+-]?digits; an 'e' without digits
// is left to the next token).  Either makes it a FLOATLIT.
func lexNumber(src string, off int) (int, TokenKind) {
	digits := func(off int) int {
		for off < len(src) && isDigit(src[off]) {
			off++
		}
		return off
	}
	kind := INTLIT
	off = digits(off)
	if off+1 < len(src) && src[off] == '.' && isDigit(src[off+1]) {
		off, kind = digits(off+1), FLOATLIT
	}
	if off < len(src) && (src[off] == 'e' || src[off] == 'E') {
		e := off + 1
		if e < len(src) && (src[e] == '+' || src[e] == '-') {
			e++
		}
		if e < len(src) && isDigit(src[e]) {
			off, kind = digits(e), FLOATLIT
		}
	}
	return off, kind
}
