package opt

import (
	"testing"

	"warp/internal/ir"
)

// TestGlobalDepsScalarFlow: a write in one block reaches reads in later
// blocks through the dependence graph.
func TestGlobalDepsScalarFlow(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        a := v * 2.0;
        for i := 0 to 3 do begin
            receive (L, X, w, xs[i]);
            send (R, X, a + w);
        end;
        send (R, X, v);
`))
	fn := p.Funcs[0]
	g := GlobalDeps(fn)

	var recv0 *ir.Node
	var sends []*ir.Node
	ir.Walk(fn.Regions, func(b *ir.Block) {
		for _, n := range b.Nodes {
			if n.Op == ir.OpRecv && recv0 == nil {
				recv0 = n
			}
			if n.Op == ir.OpSend {
				sends = append(sends, n)
			}
		}
	})
	if recv0 == nil || len(sends) != 2 {
		t.Fatal("program shape unexpected")
	}
	reach := g.Reachable([]*ir.Node{recv0})
	// The first receive flows into `a` (via the write/read hub) and so
	// into the loop's send, and directly into the final send.
	for i, s := range sends {
		if reach[s.ID] == 0 {
			t.Errorf("send %d not reachable from the first receive", i)
		}
	}
	if len(g.Hubs) == 0 {
		t.Error("no global dependences recorded")
	}
	strict := 0
	for _, h := range g.Hubs {
		if h.Kind == Strict {
			strict++
		}
	}
	if strict == 0 {
		t.Error("no strict dependences recorded")
	}
}

// TestGlobalDepsMemoryFlow: stores reach loads of possibly-equal
// addresses across blocks; loop-invariant distinct addresses do not
// alias.
func TestGlobalDepsMemoryFlow(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        buf[0] := v;
        buf[1] := v * 2.0;
        for i := 0 to 3 do
            send (R, X, buf[0]);
        receive (L, X, v, xs[1]);
        receive (L, X, v, xs[2]);
        receive (L, X, v, xs[3]);
`))
	fn := p.Funcs[0]
	g := GlobalDeps(fn)
	var store0, store1, load0 *ir.Node
	ir.Walk(fn.Regions, func(b *ir.Block) {
		for _, n := range b.Nodes {
			switch {
			case n.Op == ir.OpStore && n.Addr.Const == 0:
				store0 = n
			case n.Op == ir.OpStore && n.Addr.Const == 1:
				store1 = n
			case n.Op == ir.OpLoad:
				load0 = n
			}
		}
	})
	if store0 == nil || store1 == nil || load0 == nil {
		t.Fatal("program shape unexpected")
	}
	if g.Reachable([]*ir.Node{store0})[load0.ID] == 0 {
		t.Error("store buf[0] does not reach load buf[0]")
	}
	if g.Reachable([]*ir.Node{store1})[load0.ID] != 0 {
		t.Error("store buf[1] wrongly reaches load buf[0]: both addresses are loop invariant and distinct")
	}
}

// TestEvalConstFullMatrix folds every pure operation with constant
// operands.
func TestEvalConstFullMatrix(t *testing.T) {
	p := buildSrc(t, wrap(`
        v := 1.0;
        if 2.0 = 2.0 and 2.0 <> 3.0 and 2.0 < 3.0 and 2.0 <= 2.0
           and 3.0 > 2.0 and 3.0 >= 3.0 and not (1.0 > 2.0)
           or 1.0 < 0.0 then
            v := -(6.0 / 3.0);
        send (R, X, v, ys[0]);
        receive (L, X, v, xs[0]);
`))
	Optimize(p)
	// Everything folds: the send's argument is the constant −2.
	found := false
	for _, fn := range p.Funcs {
		ir.Walk(fn.Regions, func(b *ir.Block) {
			for _, n := range b.Nodes {
				if n.Op == ir.OpSend && n.Args[0].Op == ir.OpConst && n.Args[0].FVal == -2 {
					found = true
				}
			}
		})
	}
	if !found {
		t.Error("boolean/comparison constant folding did not reduce the program")
	}
}

// TestDivByZeroNotFolded: 1/0 keeps its runtime semantics (a machine
// fault), the optimizer must not touch it.
func TestDivByZeroNotFolded(t *testing.T) {
	p := buildSrc(t, wrap(`
        v := 1.0 / 0.0;
        send (R, X, v, ys[0]);
        receive (L, X, v, xs[0]);
`))
	Optimize(p)
	if countOp(p, ir.OpFdiv) != 1 {
		t.Error("division by zero was folded away")
	}
}
