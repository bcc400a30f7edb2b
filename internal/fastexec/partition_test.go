package fastexec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"warp/internal/driver"
	"warp/internal/fastexec"
	"warp/internal/mcode"
	"warp/internal/mcode/mcodetest"
	"warp/internal/workloads"
)

// TestPartitionStable: the fast plan's view of the op stream holds, word
// for word, the word's own ops: its reads (sends, stores, FPU fields,
// moves) before its writes (receives, loads), each in stream order, the
// writes beginning where the plan records, and, last, a move standing
// for the commit exactly when the word holds a write.  A load is read
// among the reads, first of all (held to the end of the cycle, so it
// reads the memory before the word's stores), exactly when its word also
// stores.  The view's words are the code's but for their op ranges.  The
// landing corners both executors run, the workloads and random programs,
// plain and pipelined.
func TestPartitionStable(t *testing.T) {
	var cells []*mcode.CellProgram
	for _, c := range mcodetest.LandingCases() {
		cells = append(cells, c.Cell)
	}
	rng := rand.New(rand.NewSource(41))
	srcs := []string{workloads.Matmul(10), workloads.Conv1D(9, 64), workloads.Binop(16, 16), workloads.ColorSeg(16, 16, 10)}
	for range 20 {
		src, _ := workloads.RandomProgram(rng)
		srcs = append(srcs, src)
	}
	for _, src := range srcs {
		for _, opts := range []driver.Options{{}, {Pipeline: true}} {
			c, err := driver.Compile(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, c.Cell)
		}
	}
	held, commits := 0, 0
	for pi, cell := range cells {
		code, err := mcode.Decode(cell)
		if err != nil {
			t.Fatal(err)
		}
		words, ops, writes := fastexec.Partition(code)
		if len(words) != len(code.Words) || len(writes) != len(code.Words) {
			t.Fatalf("program %d: %d words and %d write starts for %d words", pi, len(words), len(writes), len(code.Words))
		}
		next := int32(0)
		for wi, w := range code.Words {
			v := words[wi]
			if v.Lo != next || v.Skip != w.Skip || v.PC != w.PC || v.EndLo != w.EndLo || v.EndHi != w.EndHi || v.Depth != w.Depth ||
				v.Nop != w.Nop || v.Lit != w.Lit || v.LitDst != w.LitDst {
				t.Fatalf("program %d, word %d: view word %+v for %+v, ops from %d", pi, wi, v, w, next)
			}
			next = v.Hi
			stream := code.Ops[w.Lo:w.Hi]
			stores := slices.ContainsFunc(stream, func(o mcode.Op) bool { return o.Kind == mcode.OpStore })
			var first, reads, last []mcode.Op
			for _, o := range stream {
				switch {
				case o.Kind == mcode.OpLoad && stores:
					first = append(first, o)
				case o.Kind == mcode.OpRecv || o.Kind == mcode.OpLoad:
					last = append(last, o)
				default:
					reads = append(reads, o)
				}
			}
			want := slices.Concat(first, reads, last)
			if len(first) > 0 || slices.ContainsFunc(reads, func(o mcode.Op) bool { return o.Kind == mcode.OpMov }) {
				want = append(want, mcode.Op{Kind: mcode.OpMov})
				commits++
			}
			if got := ops[v.Lo:v.Hi]; fmt.Sprint(got) != fmt.Sprint(want) || writes[wi] != v.Lo+int32(len(first)+len(reads)) {
				t.Fatalf("program %d, word %d: stream %+v\nview %+v, writes from %d\nwant %+v, writes from %d",
					pi, wi, stream, got, writes[wi]-v.Lo, want, len(first)+len(reads))
			}
			held += len(first)
		}
		if int(next) != len(ops) {
			t.Errorf("program %d: the words take %d of the view's %d ops", pi, next, len(ops))
		}
	}
	if held == 0 || commits == 0 {
		t.Errorf("%d held loads and %d commits over every program, want some of each", held, commits)
	}
}
