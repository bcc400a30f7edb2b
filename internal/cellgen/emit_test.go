package cellgen

import (
	"fmt"
	"testing"

	"warp/internal/ir"
	"warp/internal/mcode"
	"warp/internal/w2"
)

// TestEmitRefusesOverfullWords: a schedule that puts two operations on
// one ADD, MUL or move field, or more than mcode.MemPorts memory
// references, into one word is refused by the emitter on both paths —
// a list-scheduled block with every node in cycle 0, and a pipelined
// loop at II 1 — naming the cycle, the node and the field.
func TestEmitRefusesOverfullWords(t *testing.T) {
	one := &ir.Node{ID: 1, Op: ir.OpConst, FVal: 1}
	s, u := &w2.Symbol{Name: "s"}, &w2.Symbol{Name: "u"}
	a := &w2.Symbol{Name: "a", Base: 100}
	cases := []struct {
		name  string
		nodes []*ir.Node
		want  string
	}{
		{"ADD", []*ir.Node{
			{ID: 2, Op: ir.OpFadd, Args: []*ir.Node{one, one}},
			{ID: 3, Op: ir.OpFsub, Args: []*ir.Node{one, one}},
		}, "cellgen: cycle 0, n3 (fsub): the ADD unit is double-booked"},
		{"MUL", []*ir.Node{
			{ID: 2, Op: ir.OpFmul, Args: []*ir.Node{one, one}},
			{ID: 3, Op: ir.OpFdiv, Args: []*ir.Node{one, one}},
		}, "cellgen: cycle 0, n3 (fdiv): the MUL unit is double-booked"},
		{"Mov", []*ir.Node{
			{ID: 2, Op: ir.OpWrite, Sym: s, Args: []*ir.Node{one}},
			{ID: 3, Op: ir.OpWrite, Sym: u, Args: []*ir.Node{one}},
		}, "cellgen: cycle 0, n3 (write): the move field is double-booked"},
		{"Mem", nil, fmt.Sprintf("cellgen: cycle 0, n%d (load): more than %d memory references in one word", mcode.MemPorts+2, mcode.MemPorts)},
	}
	for i := 0; i <= mcode.MemPorts; i++ {
		ref := &ir.Node{ID: i + 2, Op: ir.OpLoad, Sym: a, Addr: w2.AffConst(int64(i))}
		if i%2 == 1 {
			ref.Op, ref.Args = ir.OpStore, []*ir.Node{one}
		}
		cases[3].nodes = append(cases[3].nodes, ref)
	}
	for _, tc := range cases {
		at := map[*ir.Node]int64{}
		for _, n := range tc.nodes {
			at[n] = 0
		}
		g := &gen{
			res: &Result{
				ConstRegs:  map[float64]mcode.Reg{1: 0},
				ScalarRegs: map[*w2.Symbol]mcode.Reg{s: 1, u: 2},
			},
			tempBase: 3,
		}
		block := &ir.Block{ID: 7, Nodes: append([]*ir.Node{one}, tc.nodes...)}
		_, err := g.emitBlock(&blockSchedule{block: block, nodes: tc.nodes, issue: at, len: 1})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s, block: got %v, want %q", tc.name, err, tc.want)
		}

		loop := &ir.LoopRegion{Loop: &w2.ForStmt{Var: "i"}, Lo: 0, Hi: 15}
		ms := &moduloResult{ii: 1, off: at, span: 1, nodes: tc.nodes}
		items, reject, err := g.emitModulo(loop, ms)
		if reject != emitOK || items != nil || err == nil || err.Error() != tc.want {
			t.Errorf("%s, kernel: got %v (reject %d, %d items), want %q", tc.name, err, reject, len(items), tc.want)
		}
		if g.loopID != 0 {
			t.Errorf("%s, kernel: a refused emission numbered a loop", tc.name)
		}
	}
}

// TestEmitAllocations: the emitter writes every field into the word it
// is given, so emitting a range makes two allocations — the word slab
// and its pointer slice — whatever the number of ALU, move and memory
// fields in it.
func TestEmitAllocations(t *testing.T) {
	one := &ir.Node{ID: 1, Op: ir.OpConst, FVal: 1}
	s, a := &w2.Symbol{Name: "s"}, &w2.Symbol{Name: "a", Base: 100}
	g := &gen{res: &Result{
		ConstRegs:  map[float64]mcode.Reg{1: 0},
		ScalarRegs: map[*w2.Symbol]mcode.Reg{s: 1},
	}}
	for _, cycles := range []int64{1, 4, 32} {
		e := emitter{g: g, at: map[*ir.Node]int64{}, ii: cycles, trips: 1, regs: map[*ir.Node]mcode.Reg{}, copies: 1}
		for c := int64(0); c < cycles; c++ {
			id := 10 * int(c)
			for _, n := range []*ir.Node{
				{ID: id + 2, Op: ir.OpFadd, Args: []*ir.Node{one, one}},
				{ID: id + 3, Op: ir.OpFmul, Args: []*ir.Node{one, one}},
				{ID: id + 4, Op: ir.OpWrite, Sym: s, Args: []*ir.Node{one}},
				{ID: id + 5, Op: ir.OpLoad, Sym: a, Addr: w2.AffConst(c)},
				{ID: id + 6, Op: ir.OpStore, Sym: a, Addr: w2.AffConst(c + 64), Args: []*ir.Node{one}},
			} {
				e.nodes, e.at[n] = append(e.nodes, n), c
				if needsReg(n) {
					e.regs[n] = mcode.Reg(2 + len(e.regs))
				}
			}
		}
		var words []*mcode.Instr
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if words, err = e.emitRange(0, cycles); err != nil {
				t.Fatal(err)
			}
		})
		if w := words[cycles-1]; !w.HasAdd || !w.HasMul || !w.HasMov || w.Mem[0].Kind != mcode.MemLoad || w.Mem[1].Kind != mcode.MemStore {
			t.Fatalf("%d cycles: the last word is %s", cycles, w)
		}
		if allocs != 2 {
			t.Errorf("%d cycles of %d fields: %.0f allocations, want 2 (the word slab and its pointer slice)", cycles, 5*cycles, allocs)
		}
	}
}
