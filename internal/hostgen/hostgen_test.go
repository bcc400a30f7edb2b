package hostgen

import (
	"testing"

	"warp/internal/cellgen"
	"warp/internal/ir"
	"warp/internal/opt"
	"warp/internal/w2"
)

// words reads a whole stream.
func words(s Stream) []Word {
	out := make([]Word, s.Words())
	r := NewReader(s)
	r.Read(out)
	return out
}

func gen(t *testing.T, src string) *Program {
	t.Helper()
	m, err := w2.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := w2.Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(info)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(p)
	cg, err := cellgen.Generate(p, cellgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Generate(cg.Cell)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHostInputOrderAndLiterals(t *testing.T) {
	h := gen(t, `
module t (xs in, ys out)
float xs[6];
float ys[3];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float a, b;
        int i;
        for i := 0 to 2 do begin
            receive (L, X, a, xs[2*i+1]);
            receive (L, Y, b, 0.5);
            send (R, X, a+b, ys[i]);
        end;
    end
    call f;
end
`)
	// X inputs: xs[1], xs[3], xs[5] in that order.
	wantX := []int32{1, 3, 5}
	if n := h.In[w2.ChanX].Words(); n != 3 {
		t.Fatalf("X inputs: %d, want 3", n)
	}
	for i, w := range words(h.In[w2.ChanX]) {
		if w.Literal || w.Index != wantX[i] {
			t.Errorf("X input %d = %+v, want index %d", i, w, wantX[i])
		}
	}
	// Y inputs: the literal 0.5 three times.
	for i, w := range words(h.In[w2.ChanY]) {
		if !w.Literal || w.Value != 0.5 {
			t.Errorf("Y input %d = %+v, want literal 0.5", i, w)
		}
	}
	// Outputs: ys base is 6 (after xs) + i.
	for i, w := range words(h.Out[w2.ChanX]) {
		if w.Index != int32(6+i) {
			t.Errorf("X output %d stored at %d, want %d", i, w.Index, 6+i)
		}
	}
}

func TestHostDiscardForDummySends(t *testing.T) {
	h := gen(t, `
module t (xs in, ys out)
float xs[2];
float ys[1];
cellprogram (c : 0 : 1)
begin
    function f
    begin
        float a, b;
        receive (L, X, a, xs[0]);
        receive (L, X, b, xs[1]);
        send (R, X, a+b, ys[0]);
        send (R, X, 0.0);
    end
    call f;
end
`)
	out := words(h.Out[w2.ChanX])
	if len(out) != 2 {
		t.Fatalf("outputs: %d, want 2", len(out))
	}
	if out[0].Index != 2 {
		t.Errorf("first output at %d, want 2 (ys base)", out[0].Index)
	}
	if out[1].Index != Discard {
		t.Errorf("dummy send not discarded: %d", out[1].Index)
	}
}

func TestHostMissingExternalRejected(t *testing.T) {
	m, err := w2.Parse(`
module t (xs in, ys out)
float xs[2];
float ys[2];
cellprogram (c : 0 : 1)
begin
    function f
    begin
        float a;
        receive (L, X, a);
        send (R, X, a, ys[0]);
    end
    call f;
end
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := w2.Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(info)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := cellgen.Generate(p, cellgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(cg.Cell); err == nil {
		t.Fatal("receive without an external must fail host generation")
	}
}
