// Package w2 implements the front end for the W2 language, the
// "machine language" of the Warp systolic array described by Gross and
// Lam in "Compilation for a High-performance Systolic Array" (PLDI 1986).
//
// W2 is a simple block-structured language with assignment, conditional
// and loop statements.  Communication between neighbouring cells is made
// explicit with asynchronous send and receive primitives; the compiler,
// not the hardware, guarantees that the synchronous machine honours their
// blocking semantics.
package w2

import "fmt"

// TokenKind enumerates the lexical tokens of W2.
type TokenKind int32

// Token kinds.  Keywords mirror the surface syntax used in the paper's
// Figure 4-1 (module, cellprogram, begin/end, function, call, receive,
// send, for/to/do, if/then/else) plus the small expression vocabulary.
const (
	EOF TokenKind = iota
	IDENT
	INTLIT
	FLOATLIT

	// Keywords.
	MODULE
	CELLPROGRAM
	BEGIN
	END
	FUNCTION
	CALL
	FLOAT
	INT
	IF
	THEN
	ELSE
	FOR
	TO
	DO
	RECEIVE
	SEND
	IN
	OUT
	AND
	OR
	NOT
	DIV // integer division keyword
	MOD

	// Punctuation and operators.
	LPAREN    // (
	RPAREN    // )
	LBRACKET  // [
	RBRACKET  // ]
	COMMA     // ,
	SEMICOLON // ;
	COLON     // :
	ASSIGN    // :=
	PLUS      // +
	MINUS     // -
	STAR      // *
	SLASH     // /
	EQ        // =
	NE        // <>
	LT        // <
	LE        // <=
	GT        // >
	GE        // >=

	numKinds // the number of token kinds
)

var tokenNames = [numKinds]string{
	EOF:         "end of file",
	IDENT:       "identifier",
	INTLIT:      "integer literal",
	FLOATLIT:    "float literal",
	MODULE:      "module",
	CELLPROGRAM: "cellprogram",
	BEGIN:       "begin",
	END:         "end",
	FUNCTION:    "function",
	CALL:        "call",
	FLOAT:       "float",
	INT:         "int",
	IF:          "if",
	THEN:        "then",
	ELSE:        "else",
	FOR:         "for",
	TO:          "to",
	DO:          "do",
	RECEIVE:     "receive",
	SEND:        "send",
	IN:          "in",
	OUT:         "out",
	AND:         "and",
	OR:          "or",
	NOT:         "not",
	DIV:         "div",
	MOD:         "mod",
	LPAREN:      "(",
	RPAREN:      ")",
	LBRACKET:    "[",
	RBRACKET:    "]",
	COMMA:       ",",
	SEMICOLON:   ";",
	COLON:       ":",
	ASSIGN:      ":=",
	PLUS:        "+",
	MINUS:       "-",
	STAR:        "*",
	SLASH:       "/",
	EQ:          "=",
	NE:          "<>",
	LT:          "<",
	LE:          "<=",
	GT:          ">",
	GE:          ">=",
}

func (k TokenKind) String() string {
	if k >= 0 && k < numKinds {
		return tokenNames[k]
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// keywords lists the keyword kinds by the length of their spelling
// (their tokenNames entry).
var keywords [len("cellprogram") + 1][]TokenKind

func init() {
	for k := MODULE; k <= MOD; k++ {
		n := len(tokenNames[k])
		keywords[n] = append(keywords[n], k)
	}
}

// keyword returns the keyword a word spells, case-insensitively, or
// IDENT.  The word is folded into a stack buffer and compared with the
// few keywords of its length, so resolving it costs neither a map
// lookup nor an allocation.
func keyword(word string) TokenKind {
	if len(word) >= len(keywords) {
		return IDENT
	}
	var buf [len(keywords)]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	for _, k := range keywords[len(word)] {
		if tokenNames[k] == string(buf[:len(word)]) {
			return k
		}
	}
	return IDENT
}

// Pos identifies a source location (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token: its kind, its source position (line
// and byte column, from 1) and the byte span [Off, End) of its spelling
// in the source, in 20 bytes.
type Token struct {
	Kind      TokenKind
	Line, Col int32
	Off, End  int32
}

// Pos returns the token's source position.
func (t Token) Pos() Pos { return Pos{Line: int(t.Line), Col: int(t.Col)} }

// Text returns the token's spelling in src, the source it was lexed
// from.
func (t Token) Text(src string) string { return src[t.Off:t.End] }
