package opt

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"warp/internal/ir"
	"warp/internal/w2"
	"warp/internal/workloads"
)

// lowerSrc parses, analyzes and lowers a program, optimized or not.
func lowerSrc(t *testing.T, src string, optimize bool) *ir.Program {
	t.Helper()
	p := buildSrc(t, src)
	if optimize {
		Optimize(p)
	}
	return p
}

// corpusSrcs is the benchmark's eight programs, the testdata programs
// and 300 random programs.
func corpusSrcs(t *testing.T) []string {
	srcs := []string{
		workloads.Polynomial(10, 100), workloads.Conv1D(9, 2048), workloads.Binop(64, 64),
		workloads.ColorSeg(64, 64, 10), workloads.Mandelbrot(32*32, 4), workloads.FFT(1024),
		workloads.Matmul(32),
	}
	files, err := filepath.Glob("../../testdata/*.w2")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata programs: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	rng := rand.New(rand.NewSource(9))
	for range 300 {
		src, _ := workloads.RandomProgram(rng)
		srcs = append(srcs, src)
	}
	return srcs
}

// compareReach holds GlobalDeps(fn).Reachable to the reference's on
// fn: every node alone as the source, and the given source sets
// together, label for label.
func compareReach(t *testing.T, name string, fn *ir.Func, sets ...[]*ir.Node) {
	t.Helper()
	var nodes []*ir.Node
	ir.Walk(fn.Regions, func(b *ir.Block) { nodes = append(nodes, b.Nodes...) })
	want, got := refGlobalDeps(fn), GlobalDeps(fn)
	same := func(what string, sources ...[]*ir.Node) bool {
		w, g := want.Reachable(sources...), got.Reachable(sources...)
		reached := 0
		for _, n := range nodes {
			if w[n] != g[n.ID] {
				t.Errorf("%s: from %s, n%d is labelled %b; reference %b", name, what, n.ID, g[n.ID], w[n])
				return false
			}
			if w[n] != 0 {
				reached++
			}
		}
		if reached != len(w) {
			t.Errorf("%s: from %s, the reference labels %d nodes outside the blocks", name, what, len(w)-reached)
			return false
		}
		return true
	}
	if !same("the given sets", sets...) {
		return
	}
	for _, n := range nodes {
		if !same(fmt.Sprintf("n%d", n.ID), []*ir.Node{n}) {
			return
		}
	}
}

// ioSets returns the receives from the left and from the right: the
// sources commgraph asks about.
func ioSets(fn *ir.Func) (recvL, recvR []*ir.Node) {
	ir.Walk(fn.Regions, func(b *ir.Block) {
		for _, n := range b.Nodes {
			switch {
			case n.Op == ir.OpRecv && n.Dir == w2.DirL:
				recvL = append(recvL, n)
			case n.Op == ir.OpRecv && n.Dir == w2.DirR:
				recvR = append(recvR, n)
			}
		}
	})
	return recvL, recvR
}

// randomFunc builds a function of random dag nodes over two arrays and
// two scalars: stores and loads at loop-variant addresses and at
// invariant ones whose constants often coincide, scalar writes and
// reads, receives, sends and arithmetic, with operand and ordering edges
// to random earlier nodes — now and then one outside every block — in a
// few blocks, one of them in a loop.
func randomFunc(r *rand.Rand) *ir.Func {
	loop := &w2.ForStmt{Var: "i"}
	arrays := []*w2.Symbol{{Name: "a"}, {Name: "b"}}
	scalars := []*w2.Symbol{{Name: "x"}, {Name: "y"}}
	var all []*ir.Node
	id := 0
	node := func(op ir.Op) *ir.Node {
		n := &ir.Node{ID: id, Op: op}
		id++
		return n
	}
	earlier := func() *ir.Node {
		if len(all) == 0 || r.Intn(12) == 0 {
			return node(ir.OpConst) // in no block
		}
		return all[r.Intn(len(all))]
	}
	addr := func() w2.Affine {
		a := w2.AffConst(int64(r.Intn(3)))
		if r.Intn(3) == 0 {
			a = a.Add(w2.AffVar(loop))
		}
		return a
	}
	fn := &ir.Func{}
	nblocks := 1 + r.Intn(4)
	for bi := range nblocks {
		b := &ir.Block{ID: bi}
		for range 1 + r.Intn(10) {
			var n *ir.Node
			switch k := r.Intn(9); k {
			case 0, 1:
				n = node(ir.OpStore)
				n.Sym, n.Addr = arrays[r.Intn(2)], addr()
				n.Args = []*ir.Node{earlier()}
			case 2, 3:
				n = node(ir.OpLoad)
				n.Sym, n.Addr = arrays[r.Intn(2)], addr()
			case 4:
				n = node(ir.OpWrite)
				n.Sym = scalars[r.Intn(2)]
				n.Args = []*ir.Node{earlier()}
			case 5:
				n = node(ir.OpRead)
				n.Sym = scalars[r.Intn(2)]
			case 6:
				n = node(ir.OpRecv)
				n.Dir = []w2.Direction{w2.DirL, w2.DirR}[r.Intn(2)]
			case 7:
				n = node(ir.OpSend)
				n.Dir = []w2.Direction{w2.DirL, w2.DirR}[r.Intn(2)]
				n.Args = []*ir.Node{earlier()}
			default:
				n = node(ir.OpFadd)
				n.Args = []*ir.Node{earlier(), earlier()}
			}
			if r.Intn(4) == 0 {
				n.Deps = append(n.Deps, earlier())
			}
			b.Nodes = append(b.Nodes, n)
			all = append(all, n)
		}
		fn.Blocks = append(fn.Blocks, b)
		var reg ir.Region = &ir.BlockRegion{Block: b}
		if bi == nblocks/2 {
			reg = &ir.LoopRegion{Loop: loop, Lo: 0, Hi: 3, Body: []ir.Region{reg}}
		}
		fn.Regions = append(fn.Regions, reg)
	}
	return fn
}

// TestReachabilityMatchesReference: the hub graph answers every
// reachability question as the arc-per-pair graph it replaced
// (reference_test.go) does, label for label — from every node alone and
// from the receives commgraph asks about — on the corpus, optimized and
// not, and on random functions.  The random functions carry invariant
// stores whose constants are equal and unequal and chains of stores to
// one array, which the corpus alone does not pin: the sweep must see
// enough of both.
func TestReachabilityMatchesReference(t *testing.T) {
	for i, src := range corpusSrcs(t) {
		for _, optimize := range []bool{false, true} {
			for _, fn := range lowerSrc(t, src, optimize).Funcs {
				recvL, recvR := ioSets(fn)
				compareReach(t, fmt.Sprintf("program %d (optimized %v)", i, optimize), fn, recvL, recvR)
			}
		}
	}

	rng := rand.New(rand.NewSource(36))
	equalConsts, unequalConsts, storeChains := 0, 0, 0
	for i := range 2000 {
		fn := randomFunc(rng)
		recvL, recvR := ioSets(fn)
		compareReach(t, fmt.Sprintf("random function %d", i), fn, recvL, recvR)

		var stores []*ir.Node
		ir.Walk(fn.Regions, func(b *ir.Block) {
			for _, n := range b.Nodes {
				if n.Op == ir.OpStore {
					stores = append(stores, n)
				}
			}
		})
		eq, ne, chain := false, false, false
		for j, s := range stores {
			for _, s2 := range stores[j+1:] {
				if s.Sym != s2.Sym {
					continue
				}
				chain = true
				if len(s.Addr.Terms) == 0 && len(s2.Addr.Terms) == 0 {
					eq = eq || s.Addr.Const == s2.Addr.Const
					ne = ne || s.Addr.Const != s2.Addr.Const
				}
			}
		}
		equalConsts += b2i(eq)
		unequalConsts += b2i(ne)
		storeChains += b2i(chain)
	}
	if equalConsts < 200 || unequalConsts < 200 || storeChains < 500 {
		t.Errorf("the random functions are too thin: %d with equal invariant store constants, %d unequal, %d store chains",
			equalConsts, unequalConsts, storeChains)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDepGraphLinear: the hub graph's size is linear in the function,
// so the 1024-point FFT, whose arc-per-pair graph held 3 341 global arcs,
// carries at most twice as many edges per node as the 64-point one.
func TestDepGraphLinear(t *testing.T) {
	perNode := func(n int) float64 {
		fn := lowerSrc(t, workloads.FFT(n), true).Funcs[0]
		g := GlobalDeps(fn)
		return float64(len(g.succ)) / float64(g.Nodes)
	}
	small, large := perNode(64), perNode(1024)
	t.Logf("edges per node: FFT(64) %.2f, FFT(1024) %.2f", small, large)
	if large > 2*small {
		t.Errorf("FFT(1024) has %.2f edges per node, more than twice FFT(64)'s %.2f", large, small)
	}
}
