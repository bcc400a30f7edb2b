package verify_test

import (
	"math/rand"
	"reflect"
	"testing"

	"warp/internal/driver"
	"warp/internal/mcode"
	"warp/internal/verify"
	"warp/internal/workloads"
)

// The register hazard check, which reuses the walk of a loop body from a
// repeated entry state, against the check that walked every body
// (reference_test.go).

// sites calls f with every instruction of items and every loop, in
// listing order.
func sites(items []mcode.CodeItem, instr func(in *mcode.Instr, next []*mcode.Instr), loop func(l *mcode.LoopItem)) {
	for _, it := range items {
		switch it := it.(type) {
		case *mcode.Straight:
			for i, in := range it.Instrs {
				instr(in, it.Instrs[i+1:])
			}
		case *mcode.LoopItem:
			loop(it)
			sites(it.Body, instr, loop)
		}
	}
}

// compareHazards holds the check to the reference on p, then on p
// mutated at every site in turn, each mutation undone before the next:
// the cell program mutations of driver.TestVerifierRejectsMutationsOnWorkloads
// that reach the hazard check (drop-send, widen-trip-count, rename-loop;
// corrupt-register is refused by the structure check first, and the rest
// leave the cell program alone), and early-read, which has an ALU read
// the result of the FPU operation the instruction before issued — a
// latency hazard, inside whatever loops the site is in.  Last, every
// early-read at once, which suppresses diagnostics past the cap.
func compareHazards(t *testing.T, name string, p *mcode.CellProgram) (mutations int) {
	t.Helper()
	check := func(what string) {
		t.Helper()
		diags, dropped, _ := verify.Hazards(p)
		want, wantDropped := verify.RefHazards(p)
		if !reflect.DeepEqual(diags, want) || dropped != wantDropped {
			t.Fatalf("%s, %s: %d diagnostics (%d suppressed), the reference %d (%d)\n got %v\nwant %v",
				name, what, len(diags), dropped, len(want), wantDropped, diags, want)
		}
	}
	check("as compiled")
	var undo []func()
	sites(p.Items, func(in *mcode.Instr, next []*mcode.Instr) {
		for i, io := range in.IO {
			if io.Recv {
				continue
			}
			in.IO = append(in.IO[:i:i], in.IO[i+1:]...)
			check("drop-send")
			in.IO = append(in.IO[:i:i], append([]mcode.IOOp{io}, in.IO[i:]...)...)
			mutations++
		}
		var fpu *mcode.AluOp
		if in.HasAdd && in.Add.Code.Latency() > 1 {
			fpu = &in.Add
		}
		if in.HasMul {
			fpu = &in.Mul
		}
		if fpu == nil || len(next) == 0 || !next[0].HasAdd || next[0].Add.Code.NumOperands() == 0 {
			return
		}
		read, was := &next[0].Add, next[0].Add.Src[0]
		read.Src[0] = fpu.Dst
		check("early-read")
		read.Src[0] = was
		undo = append(undo, func() { read.Src[0] = fpu.Dst })
		mutations++
	}, func(l *mcode.LoopItem) {
		l.Trips++
		check("widen-trip-count")
		l.Trips--
		l.ID += 100
		check("rename-loop")
		l.ID -= 100
		mutations += 2
	})
	for _, f := range undo {
		f()
	}
	check("every early-read")
	return mutations
}

// randCell builds a random cell program: loops nested to depth, with 1
// to 4 trips, around straight runs whose FPU operations, moves, literals
// and receives write, and whose operations and sends read, four
// registers — so that a loop body is entered with different writes in
// flight, and reads race them inside and across iterations.
func randCell(rng *rand.Rand, depth int) []mcode.CodeItem {
	reg := func() mcode.Reg { return mcode.Reg(rng.Intn(4)) }
	var items []mcode.CodeItem
	for n := 1 + rng.Intn(3); n > 0; n-- {
		if depth > 0 && rng.Intn(2) == 0 {
			items = append(items, &mcode.LoopItem{Trips: 1 + rng.Int63n(4), Body: randCell(rng, depth-1)})
			continue
		}
		var run []*mcode.Instr
		for m := 1 + rng.Intn(4); m > 0; m-- {
			in := &mcode.Instr{}
			switch rng.Intn(6) {
			case 0:
				in.HasAdd, in.Add = true, mcode.AluOp{Code: mcode.Fadd, Dst: reg(), Src: [3]mcode.Reg{reg(), reg()}}
			case 1:
				in.HasMul, in.Mul = true, mcode.AluOp{Code: mcode.Fmul, Dst: reg(), Src: [3]mcode.Reg{reg(), reg()}}
			case 2:
				in.HasMov, in.Mov = true, mcode.AluOp{Code: mcode.Mov, Dst: reg(), Src: [3]mcode.Reg{reg()}}
			case 3:
				in.HasLit, in.Lit = true, mcode.LitOp{Dst: reg()}
			case 4:
				in.IO = []mcode.IOOp{{Recv: rng.Intn(2) == 0, Reg: reg()}}
			}
			run = append(run, in)
		}
		items = append(items, &mcode.Straight{Instrs: run})
	}
	return items
}

func TestHazardsMatchReference(t *testing.T) {
	programs, mutations := 0, 0
	compileCorpus(t, func(name string, c *driver.Compiled) {
		mutations += compareHazards(t, name, c.Cell)
		programs++
	})
	rng := rand.New(rand.NewSource(34))
	for range 800 {
		mutations += compareHazards(t, "random cell program", &mcode.CellProgram{Items: randCell(rng, 4)})
		programs++
	}
	t.Logf("%d programs, %d mutations", programs, mutations)
}

// TestHazardWalkFollowsTree: FFT's bit-reversal recursion nests one
// more 2-trip loop per doubling of the points; the hazard check walks a
// loop's first two iterations, so without reuse its walk doubles with
// every level.  Walks from a repeated entry state are reused, so FFT(1024)
// visits at most twice the instructions FFT(64) does.
func TestHazardWalkFollowsTree(t *testing.T) {
	visits := map[int]int64{}
	for _, points := range []int{64, 256, 1024} {
		c, err := driver.Compile(workloads.FFT(points), driver.Options{Pipeline: true})
		if err != nil {
			t.Fatal(err)
		}
		diags, _, visited := verify.Hazards(c.Cell)
		if len(diags) > 0 {
			t.Fatalf("FFT(%d): %v", points, diags)
		}
		t.Logf("FFT(%d): %d instructions visited", points, visited)
		visits[points] = visited
	}
	if visits[1024] > 2*visits[64] {
		t.Errorf("FFT(1024) visits %d instructions, FFT(64) %d: want at most twice", visits[1024], visits[64])
	}
}
