package fastexec_test

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"warp/internal/alloctest"
	"warp/internal/driver"
	"warp/internal/fastexec"
	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/sim"
	"warp/internal/w2"
	"warp/internal/workloads"
)

// TestPlanSizeIndependentOfTrips: a plan is as large as the microcode.
// An image sixteen or sixty-four times the size has at most as many plan
// words as static microinstructions, takes as many allocations to plan
// (give or take a few: the scheduler peels the larger loop differently)
// and retains nothing that grows with it — the paper's
// 512×512 colorseg unrolled to 2.88 M operations and 369 MB before the
// plan kept its loops.
func TestPlanSizeIndependentOfTrips(t *testing.T) {
	type size struct {
		instrs, words, ops int
		allocs             float64
		retained           int64
	}
	measure := func(src string) size {
		c, err := driver.Compile(src, driver.Options{Pipeline: true})
		if err != nil {
			t.Fatal(err)
		}
		prog := sim.Config{Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host, Skew: c.Skew, Lead: c.IUGen.Prologue + 1}
		var plan *fastexec.Plan
		build := func() {
			if plan, err = fastexec.Compile(prog); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(3, build) // an average, rounded down: a stray allocation elsewhere in the process does not count
		plan = nil
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		build()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return size{c.Cell.NumInstrs(), plan.Words(), plan.Ops(), allocs, int64(after.HeapAlloc) - int64(before.HeapAlloc)}
	}
	for _, tc := range []struct {
		name         string
		small, large string
	}{
		{"colorseg", workloads.ColorSeg(128, 128, 10), workloads.ColorSeg(512, 512, 10)},
		{"binop", workloads.Binop(64, 64), workloads.Binop(512, 512)},
	} {
		a, b := measure(tc.small), measure(tc.large)
		t.Logf("%s: %+v, then %+v", tc.name, a, b)
		if b.ops < 10*a.ops {
			t.Fatalf("%s: %d and %d dynamic ops: the second image is not much larger", tc.name, a.ops, b.ops)
		}
		if a.words > a.instrs || b.words > b.instrs {
			t.Errorf("%s: plans of %d and %d words for %d and %d microinstructions", tc.name, a.words, b.words, a.instrs, b.instrs)
		}
		if a.instrs == b.instrs && a.words != b.words {
			t.Errorf("%s: the plan grew with the image: %d words, then %d", tc.name, a.words, b.words)
		}
		// Equal when the microcode is: the verification and the build
		// follow the loop structure.
		if math.Abs(a.allocs-b.allocs) > 8 {
			t.Errorf("%s: planning allocates %.0f times, then %.0f", tc.name, a.allocs, b.allocs)
		}
		if a.retained > 1<<20 || b.retained > 1<<20 {
			t.Errorf("%s: plans retain %d and %d bytes, want under 1 MB", tc.name, a.retained, b.retained)
		}
	}
}

// TestExecuteAllocs pins what a run allocates: its Stats.  Its state —
// the cell memory over the plan's address envelope, the iteration
// counters, the inter-cell streams, the host stream readers — comes from
// a pool, sized by the plan, never per word or per cell; before the
// envelope a run allocated and cleared all 4096 words of cell memory for
// each cell (17 allocations and 38 KB here), and the unrolled executor
// before that allocated 209 times.  Under the race detector the counts
// have no fixed value: its sync.Pool drops Puts at random, and a dropped
// state is allocated again on the next run.
func TestExecuteAllocs(t *testing.T) {
	c, plan := planFor(t, workloads.Polynomial(10, 100), driver.Options{Pipeline: true})
	mem, err := c.Info.HostMem(seededInputs(c, 6))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := plan.Execute(mem, sim.Controls{}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := alloctest.AllocsPerRun(10, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocations, %d bytes per run", allocs, bytes)
	if alloctest.Race {
		return
	}
	if allocs > 13 {
		t.Errorf("Execute allocates %.0f times, want at most 13", allocs)
	}
	// 2.9 KB with the state pooled, 1 KB of it the cells' depth rows; a
	// pool miss (a collection) re-allocates it.
	if bytes > 12<<10 {
		t.Errorf("Execute allocates %d bytes a run, want under 12 KB", bytes)
	}
}

// TestRunRecordIsACopy: a run returns a closed-form record of its own,
// so a caller that writes into one (the driver appends the proven queue
// peaks) changes neither the plan nor the next run's record.
func TestRunRecordIsACopy(t *testing.T) {
	c, plan := planFor(t, workloads.Polynomial(10, 40), driver.Options{Pipeline: true})
	mem, err := c.Info.HostMem(seededInputs(c, 2))
	if err != nil {
		t.Fatal(err)
	}
	first, err := plan.Execute(mem, sim.Controls{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(first)
	first.CellFinish[0] = -1
	for ch := range first.Sent {
		first.Sent[ch] = -1
	}
	first.Obs.Cycles = -1
	for i := range first.Obs.Cell {
		cp := &first.Obs.Cell[i]
		cp.Busy = -1
		for d := range cp.Depth {
			cp.Depth[d].Cycles = -1
		}
	}
	second, err := plan.Execute(mem, sim.Controls{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(second); string(got) != string(want) {
		t.Errorf("a run's record changed after writing into an earlier one:\n%s\nwant\n%s", got, want)
	}
}

// nest is a hand-built cell program: in[] feeds channel X from host
// words 0.., out[] collects it at host words 64.., buf is cell memory.
type nest struct {
	name  string
	cells int // 2 only where receives and sends balance
	items []mcode.CodeItem
}

// straightIU writes out what the IU owes the nest, one event a cycle in
// the order a cell consumes them: every address from the table, every
// loop signal static.  (iugen wants a straight cycle of its own for each
// signal, which the shapes below do not all have.)
func straightIU(items []mcode.CodeItem) *mcode.IUProgram {
	iu := &mcode.IUProgram{}
	var instrs []*mcode.IUInstr
	var idx []int64 // by ForStmt.ID
	var run func(items []mcode.CodeItem)
	run = func(items []mcode.CodeItem) {
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.Straight:
				for _, in := range it.Instrs {
					for _, mo := range in.Mem {
						if mo.Kind != mcode.MemNone {
							iu.Table = append(iu.Table, int64(mo.Addr.Base)+mo.Addr.Affine.Eval(idx))
							instrs = append(instrs, &mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{FromTable: true}}})
						}
					}
				}
			case *mcode.LoopItem:
				for n := int64(0); n < it.Trips; n++ {
					if it.Src.ID >= len(idx) {
						idx = append(idx, make([]int64, it.Src.ID+1-len(idx))...)
					}
					idx[it.Src.ID] = it.First + it.Step*n
					run(it.Body)
					instrs = append(instrs, &mcode.IUInstr{Sig: &mcode.IUSig{LoopID: it.ID, Static: true, Continue: n+1 < it.Trips}})
				}
			}
		}
	}
	run(items)
	iu.Items = []mcode.IUItem{&mcode.IUStraight{Instrs: instrs}}
	return iu
}

// TestLoopShapesMatchSimulator runs loop shapes the compiler rarely or
// never emits, and every order in which an FPU result and a one-cycle
// write can meet at a register, on the simulator and on the plan: the
// outputs must be bit-identical and the cycle counts equal.
func TestLoopShapesMatchSimulator(t *testing.T) {
	in := &w2.Symbol{Name: "in"}
	out := &w2.Symbol{Name: "out"}
	buf := &w2.Symbol{Name: "buf", Kind: w2.SymCellArray}
	i, j, k := &w2.ForStmt{Var: "i", ID: 0}, &w2.ForStmt{Var: "j", ID: 1}, &w2.ForStmt{Var: "k", ID: 2}
	aff := func(c int64, terms ...w2.AffTerm) w2.Affine { return w2.Affine{Const: c, Terms: terms} }
	term := func(v *w2.ForStmt, coef int64) w2.AffTerm { return w2.AffTerm{Var: v, Coef: coef} }

	nop := func() *mcode.Instr { return &mcode.Instr{} }
	recv := func(r mcode.Reg, a w2.Affine) *mcode.Instr {
		return &mcode.Instr{IO: []mcode.IOOp{{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: r,
			Ext: mcode.AddrInfo{Sym: in, Affine: a}}}}
	}
	send := func(r mcode.Reg, a w2.Affine) *mcode.Instr {
		return &mcode.Instr{IO: []mcode.IOOp{{Dir: w2.DirR, Chan: w2.ChanX, Reg: r,
			Ext: mcode.AddrInfo{Sym: out, Base: 64, Affine: a}}}}
	}
	mem := func(store bool, r mcode.Reg, a w2.Affine) *mcode.Instr {
		kind := uint8(mcode.MemLoad)
		if store {
			kind = mcode.MemStore
		}
		return &mcode.Instr{Mem: [mcode.MemPorts]mcode.MemOp{{Kind: kind, Reg: r, Addr: mcode.AddrInfo{Sym: buf, Affine: a}}}}
	}
	fadd := func(dst, a, b mcode.Reg) *mcode.Instr {
		return &mcode.Instr{Fields: mcode.Fields{HasAdd: true, Add: mcode.AluOp{Code: mcode.Fadd, Dst: dst, Src: [3]mcode.Reg{a, b}}}}
	}
	mov := func(dst, src mcode.Reg) *mcode.Instr {
		return &mcode.Instr{Fields: mcode.Fields{HasMov: true, Mov: mcode.AluOp{Code: mcode.Mov, Dst: dst, Src: [3]mcode.Reg{src}}}}
	}
	lit := func(dst mcode.Reg, v float64) *mcode.Instr {
		return &mcode.Instr{Fields: mcode.Fields{HasLit: true, Lit: mcode.LitOp{Dst: dst, Value: v}}}
	}
	code := func(instrs ...*mcode.Instr) mcode.CodeItem { return &mcode.Straight{Instrs: instrs} }
	loop := func(id int, v *w2.ForStmt, trips int64, body ...mcode.CodeItem) mcode.CodeItem {
		return &mcode.LoopItem{ID: id, Trips: trips, Src: v, Step: 1, Body: body}
	}
	idle := func(n int) mcode.CodeItem {
		instrs := make([]*mcode.Instr, n)
		for x := range instrs {
			instrs[x] = nop()
		}
		return code(instrs...)
	}
	// landing sends r3 on six successive cycles around the one where an
	// FPU result (r1+r2, issued at cycle 3) lands in it, with a move of r4
	// into r3 landing gap cycles earlier (negative: later).
	landing := func(gap int) []mcode.CodeItem {
		instrs := []*mcode.Instr{recv(1, aff(0)), recv(2, aff(1)), recv(4, aff(2)), fadd(3, 1, 2)}
		for c := 1; c <= 8; c++ {
			in := nop()
			if c >= 3 {
				in = send(3, aff(int64(c-3)))
			}
			if c == mcode.FPULatency-1-gap {
				in.HasMov, in.Mov = true, mov(3, 4).Mov
			}
			instrs = append(instrs, in)
		}
		instrs[0].HasLit, instrs[0].Lit = true, lit(3, -1).Lit
		return []mcode.CodeItem{code(instrs...)}
	}

	nests := []nest{
		{"idle-body", 1, []mcode.CodeItem{
			code(recv(1, aff(0)), recv(2, aff(1)), fadd(3, 1, 2)),
			loop(0, i, 3, idle(2)),
			code(send(3, aff(0)), fadd(3, 3, 3)), loop(1, j, 5, idle(1)), code(send(3, aff(1))),
		}},
		{"body-ends-idle", 2, []mcode.CodeItem{
			code(lit(2, 0.5)),
			loop(0, i, 4, code(recv(1, aff(0, term(i, 1))), nop(), fadd(2, 1, 2), nop(), nop(), send(2, aff(0, term(i, 1))), nop(), nop())),
		}},
		{"idle-across-head", 1, []mcode.CodeItem{
			code(recv(1, aff(0))), idle(2),
			loop(0, i, 3, idle(2), code(fadd(1, 1, 1)), idle(5), code(send(1, aff(0, term(i, 1))))),
			idle(3),
			loop(1, j, 2, idle(1), code(recv(2, aff(1, term(j, 1))), nop(), send(2, aff(3, term(j, 1))))),
			idle(2),
		}},
		{"three-ends-on-one-word", 2, []mcode.CodeItem{
			loop(0, i, 2, loop(1, j, 3, loop(2, k, 2,
				code(recv(1, aff(0, term(i, 6), term(j, 2), term(k, 1))), send(1, aff(0, term(i, 6), term(j, 2), term(k, 1))))))),
			code(recv(1, aff(12)), send(1, aff(12))),
		}},
		{"one-trip", 2, []mcode.CodeItem{
			loop(0, i, 1, code(recv(1, aff(0)), nop(), send(1, aff(0)))),
			loop(1, j, 1, loop(2, k, 1, idle(3))),
		}},
		{"negative-coefficient", 2, []mcode.CodeItem{
			loop(0, i, 3, loop(1, j, 2, code(recv(1, aff(0, term(i, 2), term(j, 1))), nop(), mem(true, 1, aff(10, term(i, 3), term(j, -2)))))),
			loop(2, i, 3, loop(3, j, 2, code(mem(false, 2, aff(14, term(i, -3), term(j, 2))), nop(), send(2, aff(0, term(i, 2), term(j, 1)))))),
		}},
		{"fpu-and-move-land-together", 1, landing(0)},
		{"move-lands-first", 1, landing(1)},
		{"fpu-lands-first", 1, landing(-1)},
	}
	for _, n := range nests {
		t.Run(n.name, func(t *testing.T) {
			cell := &mcode.CellProgram{Items: n.items}
			iu := straightIU(n.items)
			host, err := hostgen.Generate(cell)
			if err != nil {
				t.Fatal(err)
			}
			// The IU runs ahead of cell 0 and the cells run one after the
			// other: no queue of these small nests fills, and no receive
			// comes before its send.  The landing nests read a register
			// before its FPU result lands, which the verifier refuses, so
			// the plans are built without its report.
			ic, _ := mcode.CountIU(iu)
			prog := sim.Config{Cells: n.cells, Cell: cell, IU: iu, Host: host, Skew: cell.Cycles(), Lead: ic.Cycles + 1}
			plan, err := fastexec.Build(prog)
			if err != nil {
				t.Fatal(err)
			}
			simMem := make([]float64, 128)
			for x := range simMem[:64] {
				simMem[x] = float64(x) + 0.25
			}
			fastMem := append([]float64(nil), simMem...)
			stats, err := sim.Run(sim.Config{Cells: prog.Cells, Cell: cell, IU: iu, Host: host,
				Skew: prog.Skew, Lead: prog.Lead, HostMem: simMem})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			res, err := plan.Execute(fastMem, sim.Controls{})
			if err != nil {
				t.Fatalf("fastexec: %v", err)
			}
			if res.Cycles != stats.Cycles {
				t.Errorf("cycles: fast %d, sim %d", res.Cycles, stats.Cycles)
			}
			written := 0
			for x := range simMem {
				if math.Float64bits(simMem[x]) != math.Float64bits(fastMem[x]) {
					t.Errorf("host word %d: fast %v, sim %v", x, fastMem[x], simMem[x])
				}
				if x >= 64 && simMem[x] != 0 {
					written++
				}
			}
			if written == 0 {
				t.Error("the nest wrote no output")
			}
			// The same nest three problems wide: each lane must end as it
			// does alone.
			lanes := make([][]float64, 3)
			for l := range lanes {
				lanes[l] = make([]float64, 128)
				for x := range lanes[l][:64] {
					lanes[l][x] = float64(x*(l+1)) + 0.25
				}
			}
			checkBatch(t, plan, lanes)
			t.Logf("%d plan words for %d cycles; out = %v", plan.Words(), cell.Cycles(), simMem[64:64+written])
		})
	}
}
