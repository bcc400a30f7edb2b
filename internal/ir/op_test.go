package ir

import "testing"

func TestOpPredicates(t *testing.T) {
	for _, op := range []Op{OpSend, OpStore, OpWrite} {
		if op.HasResult() {
			t.Errorf("%s must not have a result", op)
		}
	}
	for _, op := range []Op{OpConst, OpRecv, OpLoad, OpFadd, OpSelect, OpRead} {
		if !op.HasResult() {
			t.Errorf("%s must have a result", op)
		}
	}
	if !OpRecv.IsIO() || !OpSend.IsIO() || OpLoad.IsIO() {
		t.Error("IsIO broken")
	}
	if !OpLoad.IsMem() || !OpStore.IsMem() || OpRecv.IsMem() {
		t.Error("IsMem broken")
	}
	for _, op := range []Op{OpFadd, OpFmul, OpEq, OpNe, OpAnd, OpOr} {
		if !op.IsCommutative() {
			t.Errorf("%s must be commutative", op)
		}
	}
	for _, op := range []Op{OpFsub, OpFdiv, OpLt, OpSelect, OpStore} {
		if op.IsCommutative() {
			t.Errorf("%s must not be commutative", op)
		}
	}
	for _, op := range []Op{OpFadd, OpFmul, OpAnd, OpOr} {
		if !op.IsAssociative() {
			t.Errorf("%s must be associative", op)
		}
	}
	if OpFsub.IsAssociative() || OpFdiv.IsAssociative() {
		t.Error("subtraction/division must not be associative")
	}
}

func TestOpNames(t *testing.T) {
	if OpFadd.String() != "fadd" || OpRecv.String() != "recv" || OpSelect.String() != "select" {
		t.Error("op names broken")
	}
}

func TestNodeString(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        buf[2] := v;
        send (R, X, buf[2], ys[0]);
`))
	fn := p.Funcs[0]
	var texts []string
	Walk(fn.Regions, func(b *Block) {
		for _, n := range b.Nodes {
			texts = append(texts, n.String())
		}
	})
	joined := ""
	for _, s := range texts {
		joined += s + "\n"
	}
	for _, want := range []string{"recv L.X ext=xs[0]", "store buf[2]", "send R.X", "ext=ys[0]"} {
		if !contains(joined, want) {
			t.Errorf("node rendering misses %q in:\n%s", want, joined)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestIONodes(t *testing.T) {
	p := buildSrc(t, wrap(`
        receive (L, X, v, xs[0]);
        w := v * 2.0;
        send (R, X, w, ys[0]);
`))
	b := p.Funcs[0].Blocks[0]
	ios := b.IONodes()
	if len(ios) != 2 || ios[0].Op != OpRecv || ios[1].Op != OpSend {
		t.Errorf("IONodes = %v", ios)
	}
}

// IONodes returns the queue operations of the block in program order.
func (b *Block) IONodes() []*Node {
	var out []*Node
	for _, n := range b.Nodes {
		if n.Op.IsIO() {
			out = append(out, n)
		}
	}
	return out
}

// IsAssociative reports whether the op may be re-associated (used by
// height reduction).  Floating re-association changes rounding; the
// paper's compiler applies it anyway as a local optimization, and so do
// we.
func (op Op) IsAssociative() bool {
	switch op {
	case OpFadd, OpFmul, OpAnd, OpOr:
		return true
	}
	return false
}
