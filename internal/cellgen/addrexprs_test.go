package cellgen

import (
	"math/rand"
	"strconv"
	"testing"

	"warp/internal/mcode"
	"warp/internal/workloads"
)

// TestCountAddrExprsMatchesStringKeys: mcode.CountAddrExprs, which sizes
// the loop-body padding here and the IU's unroll factor, counts what the
// two string keys it replaced counted — the padding's `array|coef*var…|
// const` and the unroll factor's `array|` plus the shifted address as
// printed — on every loop body of the benchmark programs and of 200
// random ones, plain and pipelined, at several limits.
func TestCountAddrExprsMatchesStringKeys(t *testing.T) {
	srcs := make([]string, 0, len(benchmarkPrograms)+200)
	for _, p := range benchmarkPrograms {
		srcs = append(srcs, p.src)
	}
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 200; i++ {
		src, _ := workloads.RandomProgram(rng)
		srcs = append(srcs, src)
	}
	keys := func(body []mcode.CodeItem) (padding, unroll map[string]bool) {
		padding, unroll = map[string]bool{}, map[string]bool{}
		mcode.WalkInstrs(body, func(in *mcode.Instr, _ []*mcode.LoopItem) {
			for _, m := range in.Mem {
				if m.Kind == mcode.MemNone {
					continue
				}
				aff := m.Addr.Shifted()
				key := m.Addr.Sym.Name
				for _, term := range aff.Terms {
					key += "|" + strconv.FormatInt(term.Coef, 10) + "*" + term.Var.Var
				}
				padding[key+"|"+strconv.FormatInt(aff.Const, 10)] = true
				unroll[m.Addr.Sym.Name+"|"+aff.String()] = true
			}
		})
		return padding, unroll
	}
	loops, most := 0, 0
	var walk func(items []mcode.CodeItem)
	walk = func(items []mcode.CodeItem) {
		for _, it := range items {
			li, ok := it.(*mcode.LoopItem)
			if !ok {
				continue
			}
			loops++
			padding, unroll := keys(li.Body)
			most = max(most, len(padding))
			if len(padding) != len(unroll) {
				t.Fatalf("loop L%d: the two string keys disagree: %d and %d forms", li.ID, len(padding), len(unroll))
			}
			for _, limit := range []int{1, 3, mcode.IUNumRegs, 1000} {
				if got, want := mcode.CountAddrExprs(li.Body, limit), min(len(padding), limit); got != want {
					t.Fatalf("loop L%d: CountAddrExprs(limit %d) = %d, want %d", li.ID, limit, got, want)
				}
			}
			walk(li.Body)
		}
	}
	for _, src := range srcs {
		for _, pipeline := range []bool{false, true} {
			walk(compileCell(t, src, Options{Pipeline: pipeline}).Cell.Items)
		}
	}
	t.Logf("%d loop bodies, at most %d expressions in one", loops, most)
}
