package ir

import (
	"math"
	"strings"
	"testing"

	"warp/internal/w2"
)

func buildSrc(t *testing.T, src string) *Program {
	t.Helper()
	m, err := w2.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := w2.Analyze(m)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	p, err := Build(info)
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
        float v, w, acc;
        float buf[4];
        int i, j;
` + body + `
    end
    call f;
end
`
}

func countOp(fn *Func, op Op) int {
	n := 0
	Walk(fn.Regions, func(b *Block) {
		for _, node := range b.Nodes {
			if node.Op == op {
				n++
			}
		}
	})
	return n
}

func TestBuildRegionStructure(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        for i := 0 to 3 do begin
            receive (L, X, w, xs[i]);
            send (R, X, w);
        end;
        send (R, X, v);
`))
	fn := p.Funcs[0]
	if len(fn.Regions) != 3 {
		t.Fatalf("got %d top regions, want 3 (block, loop, block)", len(fn.Regions))
	}
	if _, ok := fn.Regions[0].(*BlockRegion); !ok {
		t.Errorf("region 0 should be a block")
	}
	lr, ok := fn.Regions[1].(*LoopRegion)
	if !ok {
		t.Fatalf("region 1 should be a loop")
	}
	if lr.Lo != 0 || lr.Hi != 3 || lr.Trips() != 4 {
		t.Errorf("loop bounds %d..%d", lr.Lo, lr.Hi)
	}
	// Dynamic counts: 1 + 4 loop iterations on each side.
	if fn.NumRecv[w2.DirL][w2.ChanX] != 5 || fn.NumSend[w2.DirR][w2.ChanX] != 5 {
		t.Errorf("I/O counts wrong: %v %v", fn.NumRecv, fn.NumSend)
	}
}

func TestBuildIfConversion(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        if v < 1.0 then w := 2.0; else w := 3.0;
        send (R, X, w, ys[0]);
`))
	fn := p.Funcs[0]
	// Both arms must become selects; no control flow is created.
	if len(fn.Blocks) != 1 {
		t.Fatalf("if-conversion must keep one block, got %d", len(fn.Blocks))
	}
	if n := countOp(fn, OpSelect); n != 2 {
		t.Errorf("got %d selects, want 2 (one per arm)", n)
	}
	if n := countOp(fn, OpNot); n != 1 {
		t.Errorf("got %d nots, want 1 (else predicate)", n)
	}
}

func TestBuildPredicatedStore(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        if v < 1.0 then buf[2] := v;
        send (R, X, v);
`))
	fn := p.Funcs[0]
	// A predicated store loads the old value and selects.
	if n := countOp(fn, OpLoad); n != 1 {
		t.Errorf("got %d loads, want 1", n)
	}
	if n := countOp(fn, OpSelect); n != 1 {
		t.Errorf("got %d selects, want 1", n)
	}
	if n := countOp(fn, OpStore); n != 1 {
		t.Errorf("got %d stores, want 1", n)
	}
}

func TestBuildScalarReadWrite(t *testing.T) {
	p := buildSrc(t, wrap(`
        acc := 0.0;
        for i := 0 to 3 do begin
            receive (L, X, v, xs[i]);
            acc := acc + v;
        end;
        send (R, X, acc, ys[0]);
        send (R, X, acc);
        send (R, X, acc);
        send (R, X, acc);
`))
	fn := p.Funcs[0]
	// acc is written in block 0 and in the loop, and v gets a (dead,
	// later optimized away) write in the loop; acc is read in the loop
	// and at the end.
	writes, reads := countOp(fn, OpWrite), countOp(fn, OpRead)
	if writes != 3 {
		t.Errorf("got %d writes, want 3", writes)
	}
	if reads != 2 {
		t.Errorf("got %d reads, want 2 (loop entry, final block)", reads)
	}
}

func TestBuildQueueOrderEdges(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        receive (L, X, w, xs[1]);
        send (R, X, v);
        send (R, X, w);
`))
	fn := p.Funcs[0]
	var recvs, sends []*Node
	Walk(fn.Regions, func(b *Block) {
		for _, n := range b.Nodes {
			if n.Op == OpRecv {
				recvs = append(recvs, n)
			}
			if n.Op == OpSend {
				sends = append(sends, n)
			}
		}
	})
	if len(recvs) != 2 || len(sends) != 2 {
		t.Fatal("wrong op counts")
	}
	if recvs[0].IOSeq != 0 || recvs[1].IOSeq != 1 {
		t.Errorf("receive ordinals wrong")
	}
	// The second receive must be ordered after the first.
	dep := false
	for _, d := range recvs[1].Deps {
		if d == recvs[0] {
			dep = true
		}
	}
	if !dep {
		t.Error("missing queue-order edge between receives")
	}
}

func TestBuildMemOrderEdges(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        buf[0] := v;
        w := buf[0];
        buf[1] := w;
        send (R, X, buf[0] + buf[1]);
`))
	fn := p.Funcs[0]
	var store0 *Node
	var load0 *Node
	Walk(fn.Regions, func(b *Block) {
		for _, n := range b.Nodes {
			if n.Op == OpStore && n.Addr.IsConst() && n.Addr.Const == 0 {
				store0 = n
			}
			if n.Op == OpLoad && n.Addr.IsConst() && n.Addr.Const == 0 && load0 == nil {
				load0 = n
			}
		}
	})
	if store0 == nil || load0 == nil {
		t.Fatal("missing store/load to buf[0]")
	}
	dep := false
	for _, d := range load0.Deps {
		if d == store0 {
			dep = true
		}
	}
	if !dep {
		t.Error("load of buf[0] not ordered after the store")
	}
}

func TestBuildDisjointAddressesUnordered(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        buf[0] := v;
        buf[1] := v;
`))
	fn := p.Funcs[0]
	var stores []*Node
	Walk(fn.Regions, func(b *Block) {
		for _, n := range b.Nodes {
			if n.Op == OpStore {
				stores = append(stores, n)
			}
		}
	})
	if len(stores) != 2 {
		t.Fatal("want 2 stores")
	}
	for _, d := range stores[1].Deps {
		if d == stores[0] {
			t.Error("provably disjoint stores should not be ordered")
		}
	}
}

func TestBuildConstantReuse(t *testing.T) {
	p := buildSrc(t, wrap(`
        v := 2.0;
        w := 2.0 + 2.0;
        send (R, X, v + w, ys[0]);
        receive (L, X, v, xs[0]);
`))
	fn := p.Funcs[0]
	if n := countOp(fn, OpConst); n != 1 {
		t.Errorf("constant 2.0 duplicated: %d const nodes", n)
	}
}

func TestBuildMultipleFunctions(t *testing.T) {
	src := `
module t (xs in, ys out)
float xs[4];
float ys[4];
cellprogram (cid : 0 : 0)
begin
    function first
    begin
        float v;
        receive (L, X, v, xs[0]);
        send (R, X, v, ys[0]);
    end
    function second
    begin
        float v;
        receive (L, X, v, xs[1]);
        send (R, X, v, ys[1]);
    end
    call first;
    call second;
end
`
	p := buildSrc(t, src)
	if len(p.Funcs) != 2 {
		t.Fatalf("got %d functions, want 2", len(p.Funcs))
	}
	if p.Funcs[0].Decl.Name != "first" || p.Funcs[1].Decl.Name != "second" {
		t.Error("call order not preserved")
	}
}

func TestDumpIsStable(t *testing.T) {
	src := wrap(`
        receive (L, X, v, xs[0]);
        for i := 0 to 3 do begin
            receive (L, X, w, xs[i]);
            send (R, X, w);
        end;
        send (R, X, v);
`)
	a := buildSrc(t, src).Funcs[0].Dump()
	b := buildSrc(t, src).Funcs[0].Dump()
	if a != b {
		t.Error("IR dump is nondeterministic")
	}
	if !strings.Contains(a, "loop i = 0..3") {
		t.Errorf("dump misses loop header:\n%s", a)
	}
}

// TestConstIndexKeepsEquality: a block's constants are found by ==, as
// the linear scan the index replaced found them: +0 and −0 are one
// constant, a NaN is a new one every time, and each block starts with
// none.
func TestConstIndexKeepsEquality(t *testing.T) {
	b := &builder{consts: map[float64]*Node{}}
	b.startBlock()
	zero := b.constF(0)
	if b.constF(math.Copysign(0, -1)) != zero {
		t.Error("−0 did not find the block's +0")
	}
	if b.constF(1) == zero || b.constF(1) != b.constF(1) {
		t.Error("1 is not one constant of its own")
	}
	if nan := b.constF(math.NaN()); b.constF(math.NaN()) == nan {
		t.Error("a NaN found an earlier NaN")
	}
	if len(b.blockNodes) != 4 {
		t.Errorf("block has %d constants, want 4 (0, 1, NaN, NaN)", len(b.blockNodes))
	}
	b.startBlock()
	if b.constF(0) == zero {
		t.Error("a new block found the previous block's constant")
	}
}
