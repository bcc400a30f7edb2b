package w2

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("receive (L, X, coeff, c[0]);")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{RECEIVE, LPAREN, IDENT, COMMA, IDENT, COMMA, IDENT,
		COMMA, IDENT, LBRACKET, INTLIT, RBRACKET, RPAREN, SEMICOLON, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks, err := Tokenize(":= <> <= >= < > = + - * / ( ) [ ] , ; :")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{ASSIGN, NE, LE, GE, LT, GT, EQ, PLUS, MINUS, STAR,
		SLASH, LPAREN, RPAREN, LBRACKET, RBRACKET, COMMA, SEMICOLON, COLON, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind TokenKind
		text string
	}{
		{"42", INTLIT, "42"},
		{"0", INTLIT, "0"},
		{"3.14", FLOATLIT, "3.14"},
		{"1e6", FLOATLIT, "1e6"},
		{"2.5e-3", FLOATLIT, "2.5e-3"},
		{"7E+2", FLOATLIT, "7E+2"},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if toks[0].Kind != c.kind || toks[0].Text(c.src) != c.text {
			t.Errorf("%q -> %v %q, want %v %q", c.src, toks[0].Kind, toks[0].Text(c.src), c.kind, c.text)
		}
	}
}

// TestTokenizeNumberThenIdent checks "1e" is an int followed by an
// identifier, not a malformed float.
func TestTokenizeNumberThenIdent(t *testing.T) {
	toks, err := Tokenize("1e")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != INTLIT || toks[1].Kind != IDENT {
		t.Errorf("got %v %v, want INTLIT IDENT", toks[0], toks[1])
	}
}

func TestTokenizeComments(t *testing.T) {
	src := "a /* block \n comment */ b -- line comment\nc"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 { // a b c EOF
		t.Fatalf("got %d tokens %v, want 4", len(toks), toks)
	}
	for i, name := range []string{"a", "b", "c"} {
		if toks[i].Text(src) != name {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text(src), name)
		}
	}
}

func TestTokenizeKeywordsCaseInsensitive(t *testing.T) {
	toks, err := Tokenize("MODULE Begin END receive SEND")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{MODULE, BEGIN, END, RECEIVE, SEND, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTokenizePositions(t *testing.T) {
	toks, err := Tokenize("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos() != (Pos{Line: 1, Col: 1}) {
		t.Errorf("a at %v, want 1:1", toks[0].Pos())
	}
	if toks[1].Pos() != (Pos{Line: 2, Col: 3}) {
		t.Errorf("b at %v, want 2:3", toks[1].Pos())
	}
}

func TestTokenizeErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"/* unterminated", "unterminated comment"},
		{"a ? b", "unexpected character"},
		{"x # y", "unexpected character"},
	}
	for _, c := range cases {
		_, err := Tokenize(c.src)
		if err == nil {
			t.Errorf("%q: expected error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not mention %q", c.src, err, c.want)
		}
	}
}

func TestTokenKindString(t *testing.T) {
	if EOF.String() != "end of file" || ASSIGN.String() != ":=" {
		t.Error("token kind names broken")
	}
	if TokenKind(9999).String() != "token(9999)" {
		t.Error("unknown kind rendering broken")
	}
}
