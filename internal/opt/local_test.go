package opt

import (
	"math"
	"testing"

	"warp/internal/ir"
	"warp/internal/w2"
)

func buildSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	m, err := w2.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := w2.Analyze(m)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	p, err := ir.Build(info)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func wrap(body string) string {
	return `
module t (xs in, ys out)
float xs[16];
float ys[16];
cellprogram (cid : 0 : 1)
begin
    function f
    begin
        float a, b, c, d, e, g, h, q, v, w;
        float buf[4];
        int i;
` + body + `
    end
    call f;
end
`
}

func countOp(p *ir.Program, op ir.Op) int {
	n := 0
	for _, fn := range p.Funcs {
		ir.Walk(fn.Regions, func(b *ir.Block) {
			for _, node := range b.Nodes {
				if node.Op == op {
					n++
				}
			}
		})
	}
	return n
}

func TestConstantFolding(t *testing.T) {
	p := buildSrc(t, wrap(`
        v := (2.0 + 3.0) * 4.0;
        send (R, X, v, ys[0]);
        receive (L, X, v, xs[0]);
`))
	s := Optimize(p)
	if s.Folded < 2 {
		t.Errorf("folded %d, want >= 2", s.Folded)
	}
	if n := countOp(p, ir.OpFadd) + countOp(p, ir.OpFmul); n != 0 {
		t.Errorf("%d arithmetic ops remain after folding constants", n)
	}
	// The sent value should now be the constant 20.
	found := false
	for _, fn := range p.Funcs {
		ir.Walk(fn.Regions, func(b *ir.Block) {
			for _, n := range b.Nodes {
				if n.Op == ir.OpSend && n.Args[0].Op == ir.OpConst && n.Args[0].FVal == 20 {
					found = true
				}
			}
		})
	}
	if !found {
		t.Error("send argument not folded to 20")
	}
}

func TestIdentityRemoval(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        w := v + 0.0;
        w := w * 1.0;
        w := w - 0.0;
        w := w / 1.0;
        send (R, X, w, ys[0]);
`))
	s := Optimize(p)
	if s.Idempotent < 4 {
		t.Errorf("removed %d identities, want >= 4", s.Idempotent)
	}
	// The send must trace straight back to the receive.
	for _, fn := range p.Funcs {
		ir.Walk(fn.Regions, func(b *ir.Block) {
			for _, n := range b.Nodes {
				if n.Op == ir.OpSend && n.Args[0].Op != ir.OpRecv {
					t.Errorf("send argument is %s, want the receive directly", n.Args[0].Op)
				}
			}
		})
	}
}

func TestCSE(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, a, xs[0]);
        receive (L, X, b, xs[1]);
        v := (a + b) * (a + b);
        w := (b + a) * 2.0;
        send (R, X, v + w, ys[0]);
`))
	s := Optimize(p)
	if s.CSE < 2 {
		t.Errorf("CSE merged %d, want >= 2 (a+b twice, plus the commuted b+a)", s.CSE)
	}
	if n := countOp(p, ir.OpFadd); n > 3 {
		t.Errorf("%d adds remain; a+b should exist once", n)
	}
}

func TestHeightReduction(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, a, xs[0]);
        receive (L, X, b, xs[1]);
        receive (L, X, c, xs[2]);
        receive (L, X, d, xs[3]);
        receive (L, X, e, xs[4]);
        receive (L, X, g, xs[5]);
        receive (L, X, h, xs[6]);
        receive (L, X, q, xs[7]);
        send (R, X, a + b + c + d + e + g + h + q, ys[0]);
`))
	s := Optimize(p)
	if s.Rebalanced < 1 {
		t.Fatalf("no chain was rebalanced")
	}
	// Depth of the add tree feeding the send must be ceil(log2 8) = 3.
	var depth func(n *ir.Node) int
	depth = func(n *ir.Node) int {
		if n.Op != ir.OpFadd {
			return 0
		}
		d := 0
		for _, a := range n.Args {
			if ad := depth(a); ad > d {
				d = ad
			}
		}
		return d + 1
	}
	for _, fn := range p.Funcs {
		ir.Walk(fn.Regions, func(b *ir.Block) {
			for _, n := range b.Nodes {
				if n.Op == ir.OpSend {
					if d := depth(n.Args[0]); d != 3 {
						t.Errorf("add tree depth %d, want 3", d)
					}
				}
			}
		})
	}
}

func TestDeadWriteElimination(t *testing.T) {
	p := buildSrc(t, wrap(`
        for i := 0 to 3 do begin
            receive (L, X, v, xs[i]);
            w := v * 2.0;
            send (R, X, w);
        end;
`))
	Optimize(p)
	// v and w are never read across blocks: no writes must remain.
	if n := countOp(p, ir.OpWrite); n != 0 {
		t.Errorf("%d dead writes remain", n)
	}
}

func TestLiveWriteKept(t *testing.T) {
	p := buildSrc(t, wrap(`
        v := 0.0;
        for i := 0 to 3 do begin
            receive (L, X, w, xs[i]);
            v := v + w;
            send (R, X, w);
        end;
        send (R, X, v, ys[0]);
        receive (L, X, v, xs[0]);
`))
	Optimize(p)
	if n := countOp(p, ir.OpWrite); n < 2 {
		t.Errorf("accumulator writes were wrongly removed (%d left)", n)
	}
}

func TestSelectSimplification(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        if 1.0 < 2.0 then w := v; else w := 0.0;
        send (R, X, w, ys[0]);
`))
	s := Optimize(p)
	if countOp(p, ir.OpSelect) != 0 {
		t.Errorf("constant-condition selects remain (stats: %+v)", s)
	}
}

func TestDeadCodeRemoval(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        w := v * 3.0;
        send (R, X, v, ys[0]);
`))
	s := Optimize(p)
	if s.Dead == 0 {
		t.Error("dead multiply not removed")
	}
	if n := countOp(p, ir.OpFmul); n != 0 {
		t.Errorf("%d dead multiplies remain", n)
	}
}

// TestOptimizePreservesSemantics is covered end to end by the driver
// package (simulator vs interpreter with and without optimization);
// here we only check the optimizer is idempotent.
func TestOptimizeIdempotent(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, a, xs[0]);
        receive (L, X, b, xs[1]);
        v := (a + b) * (a + b) + 0.0;
        send (R, X, v, ys[0]);
        send (R, X, a + b, ys[1]);
`))
	Optimize(p)
	second := Optimize(p)
	if second.Total() != 0 {
		t.Errorf("second Optimize still found %+v", second)
	}
}

// TestCSEComparesConstantsByValue: local value numbering finds a
// constant by ==, as its map key did: a folded −0 merges into the
// block's +0, and two folded NaNs stay two constants.
func TestCSEComparesConstantsByValue(t *testing.T) {
	p := buildSrc(t, wrap(`
        v := -0.0;
        w := 0.0;
        a := (1e308 * 10.0) - (1e308 * 10.0);
        b := (1e308 * 10.0) - (1e308 * 10.0);
        send (R, X, v);
        send (R, X, w);
        send (R, X, a);
        send (R, X, b);
`))
	Optimize(p)
	var zeros, nans int
	for _, n := range p.Funcs[0].Blocks[0].Nodes {
		switch {
		case n.Op != ir.OpConst:
		case n.FVal == 0:
			zeros++
		case math.IsNaN(n.FVal):
			nans++
		}
	}
	if zeros != 1 || nans != 2 {
		t.Errorf("%d zero and %d NaN constants, want 1 and 2\n%s", zeros, nans, p.Funcs[0].Dump())
	}
}
