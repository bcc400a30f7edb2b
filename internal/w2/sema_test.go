package w2

import (
	"strings"
	"testing"
)

func analyze(t *testing.T, src string) (*Info, error) {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Analyze(m)
}

func mustAnalyze(t *testing.T, src string) *Info {
	t.Helper()
	info, err := analyze(t, src)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info
}

func wantSemaError(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := analyze(t, src)
	if err == nil {
		t.Fatalf("expected a semantic error mentioning %q", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not mention %q", err, fragment)
	}
}

func TestSemaAcceptsPolynomialShape(t *testing.T) {
	info := mustAnalyze(t, minimal(`
        receive (L, X, v, xs[0]);
        for i := 0 to 15 do begin
            receive (L, X, w, xs[i]);
            send (R, X, w, ys[i]);
        end;
        send (R, X, v);
`))
	if info.HostSize != 32 {
		t.Errorf("host size %d, want 32", info.HostSize)
	}
	if len(info.HostSyms) != 2 {
		t.Errorf("host syms %d", len(info.HostSyms))
	}
}

// TestSemaRestrictions exercises every restriction of §5.1 and the
// machine-imposed rules one by one.
func TestSemaRestrictions(t *testing.T) {
	cases := []struct{ name, body, want string }{
		{"dynamic loop bound", "for i := 0 to 15 do for j := 0 to i do v := 1.0;",
			"compile-time constants"},
		{"loop variable assignment", "i := 1.0;", "integer arithmetic"},
		{"int in float expr", "for i := 0 to 3 do v := v + i;", "cannot appear in cell computation"},
		{"quadratic subscript", "for i := 0 to 1 do for j := 0 to 1 do buf[i*j] := 1.0;",
			"affine"},
		{"subscript out of range", "for i := 0 to 15 do buf[i] := 1.0;", "outside"},
		{"cid in subscript", "buf[cid] := 1.0;", "common to all cells"},
		{"host var in computation", "v := xs[0];", "through receive externals"},
		{"assign to host", "xs[0] := 1.0;", "host variable"},
		{"io under if", "if v < 1.0 then send (R, X, v);", "data independent"},
		{"receive into host", "receive (L, X, xs[0]);", "host variable"},
		{"send external in-param", "send (R, X, v, xs[0]);", "out parameter"},
		{"receive external out-param", "receive (L, X, v, ys[0]);", "in parameter"},
		{"undefined variable", "q := 1.0;", "undefined"},
		{"scalar subscripted", "v[0] := 1.0;", "scalar"},
		{"dim mismatch", "receive (L, X, v, xs[0][1]);", "subscript"},
		{"loop var reuse", "for i := 0 to 1 do for i := 0 to 1 do v := 1.0;", "reused"},
		{"loop var out of scope", "for i := 0 to 1 do v := 1.0; buf[i] := 1.0;", "outside its loop"},
		{"empty loop", "for i := 3 to 1 do v := 1.0;", "empty"},
		{"comparison of bools", "if (v < w) < (w < v) then v := 1.0;", "float operands"},
		{"and of floats", "if v and w then v := 1.0;", "boolean operands"},
		{"float condition", "if v then v := 1.0;", "comparison"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantSemaError(t, minimal(c.body), c.want)
		})
	}
}

func TestSemaModuleLevelErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"param without decl", `
module m (a in)
cellprogram (c : 0 : 0)
begin
    function f begin
        float v;
        v := 1.0;
    end
    call f;
end`, "no declaration"},
		{"int host param", `
module m (a in)
int a[4];
cellprogram (c : 0 : 0)
begin
    function f begin
        float v;
        v := 1.0;
    end
    call f;
end`, "must be float"},
		{"non-param module decl", `
module m (a in)
float a[4], b[4];
cellprogram (c : 0 : 0)
begin
    function f begin
        float v;
        v := 1.0;
    end
    call f;
end`, "not a parameter"},
		{"cellprogram must start at 0", `
module m (a in)
float a[4];
cellprogram (c : 1 : 3)
begin
    function f begin
        float v;
        v := 1.0;
    end
    call f;
end`, "start at cell 0"},
		{"no call", `
module m (a in)
float a[4];
cellprogram (c : 0 : 0)
begin
    function f begin
        float v;
        v := 1.0;
    end
end`, "no call statement"},
		{"undefined call", `
module m (a in)
float a[4];
cellprogram (c : 0 : 0)
begin
    function f begin
        float v;
        v := 1.0;
    end
    call g;
end`, "undefined function"},
		{"duplicate function", `
module m (a in)
float a[4];
cellprogram (c : 0 : 0)
begin
    function f begin
        float v;
        v := 1.0;
    end
    function f begin
        float v;
        v := 1.0;
    end
    call f;
end`, "duplicate function"},
		{"local shadows host", `
module m (a in)
float a[4];
cellprogram (c : 0 : 0)
begin
    function f begin
        float a;
        a := 1.0;
    end
    call f;
end`, "shadows"},
		{"cell memory exceeded", `
module m (a in)
float a[4];
cellprogram (c : 0 : 0)
begin
    function f begin
        float big[5000];
        big[0] := 1.0;
    end
    call f;
end`, "4K"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantSemaError(t, c.src, c.want)
		})
	}
}

// TestSemaAddressForms checks the affine address resolution of array
// references.
func TestSemaAddressForms(t *testing.T) {
	info := mustAnalyze(t, minimal(`
        for i := 0 to 1 do
            for j := 0 to 1 do
                buf[2*i + j] := 1.0;
`))
	var found bool
	for id, aff := range info.Address {
		if info.Uses[id].Name != "buf" {
			continue
		}
		found = true
		if got := aff.String(); got != "2*i + j" {
			t.Errorf("address form %q, want \"2*i + j\"", got)
		}
	}
	if !found {
		t.Fatal("no buf address recorded")
	}
}

// TestSema2DAddressFlattening checks row-major flattening of 2-d host
// subscripts.
func TestSema2DAddressFlattening(t *testing.T) {
	src := `
module t (m in, o out)
float m[3][5];
float o[15];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float v;
        int i, j;
        for i := 0 to 2 do
            for j := 0 to 4 do begin
                receive (L, X, v, m[i][j]);
                send (R, X, v, o[5*i+j]);
            end;
    end
    call f;
end
`
	info := mustAnalyze(t, src)
	for id, aff := range info.Address {
		if info.Uses[id].Name != "m" {
			continue
		}
		if got := aff.String(); got != "5*i + j" {
			t.Errorf("m[i][j] flattened to %q, want \"5*i + j\"", got)
		}
	}
}

func TestSymbolKindsAndBases(t *testing.T) {
	info := mustAnalyze(t, minimal("buf[0] := 1.0; v := buf[1];"))
	kinds := map[string]SymKind{}
	for _, s := range info.Uses {
		kinds[s.Name] = s.Kind
	}
	if kinds["buf"] != SymCellArray || kinds["v"] != SymCellScalar {
		t.Errorf("symbol kinds wrong: %v", kinds)
	}
	// Host layout: xs at 0, ys at 16.
	if info.HostSyms[0].Base != 0 || info.HostSyms[1].Base != 16 {
		t.Errorf("host layout wrong: %d %d", info.HostSyms[0].Base, info.HostSyms[1].Base)
	}
}
