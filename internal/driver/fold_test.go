package driver

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"warp/internal/mcode"
	"warp/internal/workloads"
)

// The fold over the loop nest (mcode.Fold) against a brute-force walk:
// every loop unrolled, do-while as the sequencer runs it, so that the
// executed instructions are the cycles in order and an instruction's
// µPC is the order it first executes in.

// unrolled appends every instruction items execute, in order.
func unrolled[I any](items []mcode.Item[I], out []*I) []*I {
	for _, it := range items {
		switch it := it.(type) {
		case *mcode.Block[I]:
			out = append(out, it.Instrs...)
		case *mcode.Loop[I]:
			for k := int64(0); k < max(it.Trips, 1); k++ {
				out = unrolled(it.Body, out)
			}
		}
	}
	return out
}

// clamped copies the nest with every trip count cut to limit, the
// instructions shared.
func clamped[I any](items []mcode.Item[I], limit int64) []mcode.Item[I] {
	out := make([]mcode.Item[I], len(items))
	for i, it := range items {
		out[i] = it
		if l, ok := it.(*mcode.Loop[I]); ok {
			c := *l
			c.Trips, c.Body = min(l.Trips, limit), clamped(l.Body, limit)
			out[i] = &c
		}
	}
	return out
}

// checkFold holds the fold of items to the unrolled walk: each
// instruction's µPC, and its body cycle placed by the enclosing loops'
// first cycles and iteration lengths at every iteration, name the cycle
// it executes in; the folded length is the walk's.  It returns the
// folded length.
func checkFold[I any](items []mcode.Item[I]) (int64, error) {
	trace := unrolled(items, nil)
	pcOf := map[*I]int{}
	for _, in := range trace {
		if _, ok := pcOf[in]; !ok {
			pcOf[in] = len(pcOf)
		}
	}
	type site struct {
		in    *I
		at    int64
		loops []*mcode.Loop[I]
	}
	type span struct{ at, iterLen int64 }
	var sites []site
	spans := map[*mcode.Loop[I]]span{}
	var err error
	_, n := mcode.Fold(items, 0, func(v int, in *I, s *mcode.Site[I]) int {
		if pc, ok := pcOf[in]; (!ok || pc != s.PC) && err == nil {
			err = fmt.Errorf("instruction at µPC %d first executes as µPC %d (%v)", s.PC, pc, ok)
		}
		sites = append(sites, site{in, s.At, append([]*mcode.Loop[I](nil), s.Loops...)})
		return v
	}, nil, func(v int, l *mcode.Loop[I], s *mcode.Site[I], iterLen int64, _ int) int {
		spans[l] = span{s.At, iterLen}
		return v
	})
	if err != nil {
		return n, err
	}
	if n != int64(len(trace)) {
		return n, fmt.Errorf("folded length %d, unrolled %d", n, len(trace))
	}
	seen := 0
	for _, st := range sites {
		var place func(d int, base int64) error
		place = func(d int, base int64) error {
			if d == len(st.loops) {
				seen++
				if c := base + st.at; c < 0 || c >= n || trace[c] != st.in {
					return fmt.Errorf("instruction µPC %d placed at cycle %d, which runs another", pcOf[st.in], c)
				}
				return nil
			}
			l := st.loops[d]
			for k := int64(0); k < max(l.Trips, 1); k++ {
				if err := place(d+1, base+spans[l].at+k*spans[l].iterLen); err != nil {
					return err
				}
			}
			return nil
		}
		if err := place(0, 0); err != nil {
			return n, err
		}
	}
	if seen != len(trace) {
		return n, fmt.Errorf("the fold places %d executions, the walk runs %d", seen, len(trace))
	}
	return n, nil
}

// checkCompiled checks both nests of c at trip counts cut to three
// against the unrolled walk and at full size against the closed-form
// counts.
func checkCompiled(c *Compiled) error {
	if _, err := checkFold(clamped(c.Cell.Items, 3)); err != nil {
		return fmt.Errorf("cell: %v", err)
	}
	if _, err := checkFold(clamped(c.IU.Items, 3)); err != nil {
		return fmt.Errorf("IU: %v", err)
	}
	cc, err := mcode.CountCell(c.Cell)
	if err != nil {
		return err
	}
	ic, err := mcode.CountIU(c.IU)
	if err != nil {
		return err
	}
	if n := mcode.Cycles(c.Cell.Items); n != cc.Cycles {
		return fmt.Errorf("cell: folded length %d, CountCell %d", n, cc.Cycles)
	}
	if n := mcode.Cycles(c.IU.Items); n != ic.Cycles {
		return fmt.Errorf("IU: folded length %d, CountIU %d", n, ic.Cycles)
	}
	return nil
}

// randNest builds a random nest: loops of 0 to 3 trips (a loop below one
// trip runs once) and blocks of 0 to 2 instructions.
func randNest[I any](rng *rand.Rand, depth int, id *int) []mcode.Item[I] {
	var items []mcode.Item[I]
	for n := rng.Intn(4); n > 0; n-- {
		if depth > 0 && rng.Intn(2) == 0 {
			*id++
			items = append(items, &mcode.Loop[I]{ID: *id, Trips: rng.Int63n(4), Body: randNest[I](rng, depth-1, id)})
			continue
		}
		b := &mcode.Block[I]{}
		for k := rng.Intn(3); k > 0; k-- {
			b.Instrs = append(b.Instrs, new(I))
		}
		items = append(items, b)
	}
	return items
}

func TestFoldMatchesUnrolledWalk(t *testing.T) {
	for _, p := range p8 {
		for _, pipeline := range []bool{false, true} {
			c, err := Compile(p.src, Options{Pipeline: pipeline})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkCompiled(c); err != nil {
				t.Errorf("%s (pipeline %v): %v", p.name, pipeline, err)
			}
		}
	}
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.w2"))
	if len(files) == 0 {
		t.Fatal("no testdata programs")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, pipeline := range []bool{false, true} {
			c, err := Compile(string(src), Options{Pipeline: pipeline})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkCompiled(c); err != nil {
				t.Errorf("%s (pipeline %v): %v", f, pipeline, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 60; i++ {
		src, _ := workloads.RandomProgram(rng)
		c, err := Compile(src, Options{Pipeline: i%2 == 1})
		if err != nil {
			t.Fatalf("random program %d: %v", i, err)
		}
		if err := checkCompiled(c); err != nil {
			t.Errorf("random program %d: %v\n%s", i, err, src)
		}
	}
	// Random nests, zero-trip loops and empty blocks and bodies included;
	// the closed-form counts run a zero-trip loop once, as the fold does.
	for i := 0; i < 500; i++ {
		id := 0
		cell := &mcode.CellProgram{Items: randNest[mcode.Instr](rng, 3, &id)}
		n, err := checkFold(cell.Items)
		if c, _ := mcode.CountCell(cell); err == nil && n != c.Cycles {
			err = fmt.Errorf("folded length %d, CountCell %d", n, c.Cycles)
		}
		if err != nil {
			t.Fatalf("cell nest %d: %v\n%s", i, err, cell.Listing())
		}
		iu := &mcode.IUProgram{Items: randNest[mcode.IUInstr](rng, 3, &id)}
		n, err = checkFold(iu.Items)
		if c, _ := mcode.CountIU(iu); err == nil && n != c.Cycles {
			err = fmt.Errorf("folded length %d, CountIU %d", n, c.Cycles)
		}
		if err != nil {
			t.Fatalf("IU nest %d: %v\n%s", i, err, iu.Listing())
		}
	}
}
