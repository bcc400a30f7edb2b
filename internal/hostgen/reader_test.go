package hostgen

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"warp/internal/cellgen"
	"warp/internal/ir"
	"warp/internal/mcode"
	"warp/internal/opt"
	"warp/internal/w2"
	"warp/internal/workloads"
)

// The loop nests and their Reader against the word-by-word emitter they
// replaced: oracle interprets the cell program directly — one word per
// executed I/O operation, loop indices looked up as it goes, a loop run
// max(Trips, 1) times as the sequencer's do-while loops run it.

type binding struct {
	loop *mcode.LoopItem
	val  int64
}

type oracle struct {
	in, out map[w2.Channel][]Word
	stack   []binding
}

func runOracle(cell *mcode.CellProgram) (*oracle, error) {
	o := &oracle{in: map[w2.Channel][]Word{}, out: map[w2.Channel][]Word{}}
	return o, o.run(cell.Items)
}

func (o *oracle) run(items []mcode.CodeItem) error {
	for _, it := range items {
		switch it := it.(type) {
		case *mcode.Straight:
			for _, in := range it.Instrs {
				for i := range in.IO {
					if err := o.emit(&in.IO[i]); err != nil {
						return err
					}
				}
			}
		case *mcode.LoopItem:
			o.stack = append(o.stack, binding{loop: it})
			for k := range max(it.Trips, 1) {
				o.stack[len(o.stack)-1].val = it.First + k*it.Step
				if err := o.run(it.Body); err != nil {
					return err
				}
			}
			o.stack = o.stack[:len(o.stack)-1]
		}
	}
	return nil
}

func (o *oracle) emit(io *mcode.IOOp) error {
	w := Word{Index: Discard}
	switch {
	case io.Recv && io.IsLiteral:
		w = Word{Literal: true, Value: io.Literal}
	case io.Ext.Sym != nil:
		aff := io.Ext.Shifted()
		idx := int64(io.Ext.Base) + aff.Const
		for _, t := range aff.Terms {
			i := len(o.stack) - 1
			for i >= 0 && o.stack[i].loop.Src != t.Var {
				i--
			}
			if i < 0 {
				return fmt.Errorf("loop %s out of scope", t.Var.Var)
			}
			idx += t.Coef * o.stack[i].val
		}
		w.Index = int32(idx)
	case io.Recv:
		return fmt.Errorf("no external binding")
	}
	if io.Recv {
		o.in[io.Chan] = append(o.in[io.Chan], w)
	} else {
		o.out[io.Chan] = append(o.out[io.Chan], w)
	}
	return nil
}

// checkStream reads s in blocks of every interesting size, and word by
// word, and compares each reading with want.
func checkStream(t *testing.T, name string, s Stream, want []Word) {
	t.Helper()
	if s.Words() != int64(len(want)) {
		t.Fatalf("%s: nest counts %d words, the oracle emitted %d\n%s", name, s.Words(), len(want), s)
	}
	sizes := []int{1, 2, 3, 7, blockWords - 1, blockWords, blockWords + 1, len(want) - 1, len(want), len(want) + 1}
	for _, size := range sizes {
		if size < 1 {
			continue
		}
		var r Reader
		r.Reset(s)
		var got []Word
		buf := make([]Word, size)
		for {
			n := r.Read(buf)
			got = append(got, buf[:n]...)
			if n < size {
				break
			}
		}
		if r.Read(buf) != 0 {
			t.Fatalf("%s: Read past the end returns words", name)
		}
		if !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s in blocks of %d: words differ from the oracle's (%d vs %d)\n%s", name, size, len(got), len(want), s)
		}
	}
	var r Reader
	r.Reset(s)
	for i, w := range want {
		if got := r.Next(); got == nil || *got != w {
			t.Fatalf("%s: Next %d = %+v, want %+v", name, i, got, w)
		}
	}
	if r.Next() != nil {
		t.Fatalf("%s: Next past the end returns a word", name)
	}
}

func checkProgram(t *testing.T, name string, cell *mcode.CellProgram) {
	t.Helper()
	want, errWant := runOracle(cell)
	got, err := Generate(cell)
	if (err != nil) != (errWant != nil) {
		t.Fatalf("%s: Generate error %v, oracle error %v", name, err, errWant)
	}
	if err != nil {
		return
	}
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		checkStream(t, fmt.Sprintf("%s in %s", name, ch), got.In[ch], want.in[ch])
		checkStream(t, fmt.Sprintf("%s out %s", name, ch), got.Out[ch], want.out[ch])
		if _, ok := got.In[ch]; ok != (len(want.in[ch]) > 0) {
			t.Errorf("%s: In[%s] present=%v with %d words", name, ch, ok, len(want.in[ch]))
		}
		if _, ok := got.Out[ch]; ok != (len(want.out[ch]) > 0) {
			t.Errorf("%s: Out[%s] present=%v with %d words", name, ch, ok, len(want.out[ch]))
		}
	}
}

func compileCell(t *testing.T, src string, pipeline bool) *mcode.CellProgram {
	t.Helper()
	m, err := w2.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := w2.Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(info)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(p)
	cg, err := cellgen.Generate(p, cellgen.Options{Pipeline: pipeline})
	if err != nil {
		t.Fatal(err)
	}
	return cg.Cell
}

func TestReaderMatchesOracleOnPrograms(t *testing.T) {
	for name, src := range map[string]string{
		"polynomial": workloads.Polynomial(10, 100),
		"conv1d":     workloads.Conv1D(9, 2048),
		"binop":      workloads.Binop(64, 64),
		"colorseg":   workloads.ColorSeg(64, 64, 10),
		"mandelbrot": workloads.Mandelbrot(32*32, 4),
		"fft1024":    workloads.FFT(1024),
		"matmul32":   workloads.Matmul(32),
	} {
		for _, pipeline := range []bool{false, true} {
			checkProgram(t, fmt.Sprintf("%s pipeline=%v", name, pipeline), compileCell(t, src, pipeline))
		}
	}
}

// randNest draws a random cell program of I/O operations under loops:
// zero-trip and negative-step loops, literals, discards, pipelining
// deltas, and now and then an operation that cannot be resolved (no
// external, or a loop index out of scope) — which must fail the
// generation exactly when it executes.
func randNest(rng *rand.Rand) *mcode.CellProgram {
	sym := &w2.Symbol{Name: "a"}
	stray := &w2.ForStmt{Var: "stray"}
	var gen func(depth int, scope []*w2.ForStmt) []mcode.CodeItem
	gen = func(depth int, scope []*w2.ForStmt) []mcode.CodeItem {
		var items []mcode.CodeItem
		for n := 1 + rng.Intn(3); n > 0; n-- {
			if depth < 3 && rng.Intn(2) == 0 {
				src := &w2.ForStmt{Var: fmt.Sprintf("i%d", depth)}
				if rng.Intn(4) == 0 && len(scope) > 0 {
					src = scope[rng.Intn(len(scope))] // shadows an outer loop of the same statement
				}
				trips := []int64{0, 1, 2, 3, 7, 20}[rng.Intn(6)]
				if rng.Intn(12) == 0 {
					trips = -2
				}
				items = append(items, &mcode.LoopItem{
					Trips: trips, First: int64(rng.Intn(7) - 3), Step: int64(rng.Intn(7) - 3), Src: src,
					Body: gen(depth+1, append(scope[:len(scope):len(scope)], src)),
				})
				continue
			}
			var instrs []*mcode.Instr
			for k := rng.Intn(4); k > 0; k-- {
				io := mcode.IOOp{Recv: rng.Intn(2) == 0, Chan: w2.Channel(rng.Intn(2))}
				switch kind := rng.Intn(20); {
				case kind == 0 && io.Recv:
					// no external at all
				case kind < 4:
					if io.Recv {
						io.IsLiteral, io.Literal = true, float64(rng.Intn(5))
					}
				default:
					a := mcode.AddrInfo{Sym: sym, Base: rng.Intn(50), Affine: w2.Affine{Const: int64(rng.Intn(9) - 4)}}
					for _, l := range scope {
						if rng.Intn(2) == 0 {
							a.Affine.Terms = append(a.Affine.Terms, w2.AffTerm{Var: l, Coef: int64(rng.Intn(9) - 4)})
							if rng.Intn(4) == 0 {
								a.Shift, a.ShiftLoop = int64(rng.Intn(3)-1), l
							}
						}
					}
					if kind == 4 {
						a.Affine.Terms = append(a.Affine.Terms, w2.AffTerm{Var: stray, Coef: 1})
					}
					io.Ext = a
				}
				instrs = append(instrs, &mcode.Instr{IO: []mcode.IOOp{io}})
			}
			items = append(items, &mcode.Straight{Instrs: instrs})
		}
		return items
	}
	return &mcode.CellProgram{Items: gen(0, nil)}
}

func TestReaderMatchesOracleOnRandomNests(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	accepted, rejected, zeroTrip := 0, 0, 0
	for i := 0; i < 1200; i++ {
		cell := randNest(rng)
		name := fmt.Sprintf("nest %d", i)
		checkProgram(t, name, cell)
		h, err := Generate(cell)
		if err != nil {
			rejected++
			continue
		}
		accepted++
		// Every loop runs its body at least once, so every operation
		// executes: an unresolvable one always fails the generation.
		if unresolvable(cell.Items) {
			t.Errorf("%s: accepted with an unresolvable operation", name)
		}
		// The streams are as long as the cell's counted receives and
		// sends, zero-trip loops included.
		counts, err := mcode.CountCell(cell)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
			if h.In[ch].Words() != counts.Recv[ch] || h.Out[ch].Words() != counts.Send[ch] {
				t.Errorf("%s on %s: %d words in and %d out, mcode.CountCell %d receives and %d sends",
					name, ch, h.In[ch].Words(), h.Out[ch].Words(), counts.Recv[ch], counts.Send[ch])
			}
		}
		if zeroTrips(cell.Items) {
			zeroTrip++
		}
	}
	t.Logf("%d nests accepted (%d with a loop of fewer than one trip), %d rejected", accepted, zeroTrip, rejected)
	if accepted < 500 || rejected < 100 || zeroTrip < 100 {
		t.Errorf("the generator is too weak: %d accepted, %d with a zero-trip loop, %d rejected", accepted, zeroTrip, rejected)
	}
}

// zeroTrips reports whether the items hold a loop of fewer than one trip.
func zeroTrips(items []mcode.CodeItem) bool {
	for _, it := range items {
		if l, ok := it.(*mcode.LoopItem); ok && (l.Trips < 1 || zeroTrips(l.Body)) {
			return true
		}
	}
	return false
}

// unresolvable reports whether any operation of the items is one of
// randNest's failures: a receive without an external, or an address over
// the loop that is never in scope.
func unresolvable(items []mcode.CodeItem) bool {
	for _, it := range items {
		switch it := it.(type) {
		case *mcode.LoopItem:
			if unresolvable(it.Body) {
				return true
			}
		case *mcode.Straight:
			for _, in := range it.Instrs {
				for _, io := range in.IO {
					if io.Recv && io.Ext.Sym == nil && !io.IsLiteral {
						return true
					}
					if io.Ext.Sym != nil {
						for _, t := range io.Ext.Affine.Terms {
							if t.Var.Var == "stray" {
								return true
							}
						}
					}
				}
			}
		}
	}
	return false
}

// TestHostProgramSizeIndependentOfTrips: a larger image is the same nest
// with larger trip counts.
func TestHostProgramSizeIndependentOfTrips(t *testing.T) {
	size := func(side int) (nodes, rendered int, words int64) {
		h, err := Generate(compileCell(t, workloads.ColorSeg(side, side, 10), true))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []map[w2.Channel]Stream{h.In, h.Out} {
			for _, s := range m {
				nodes += len(s)
				rendered += len(s.String())
				words += s.Words()
			}
		}
		return nodes, rendered, words
	}
	n64, r64, w64 := size(64)
	n512, r512, w512 := size(512)
	t.Logf("colorseg 64²: %d nodes, %d bytes rendered, %d words; 512²: %d nodes, %d bytes, %d words", n64, r64, w64, n512, r512, w512)
	if n64 != n512 || r512 > r64+64 || r512 > 4096 {
		t.Errorf("host program grew with the image: %d nodes / %d bytes at 64², %d / %d at 512²", n64, r64, n512, r512)
	}
	if w64 != 10*64*64+2*40 || w512 != 10*512*512+2*40 {
		t.Errorf("word counts %d and %d, want 10 per pixel and 40 reference words each way", w64, w512)
	}
}

// TestCountsExactOrRefused: the word count is what the verifier and the
// executors compare with the microcode's, so a count that does not fit,
// or an address outside Word.Index, is a positioned error — under a
// zero-trip loop too, whose body runs once.
func TestCountsExactOrRefused(t *testing.T) {
	pos := w2.Pos{Line: 12, Col: 5}
	recv := &mcode.Straight{Instrs: []*mcode.Instr{{Pos: pos, IO: []mcode.IOOp{{Recv: true, Chan: w2.ChanY, IsLiteral: true, Literal: 1}}}}}
	nest := func(trips ...int64) *mcode.CellProgram {
		items := []mcode.CodeItem{recv}
		for _, n := range trips {
			items = []mcode.CodeItem{&mcode.LoopItem{Trips: n, Step: 1, Body: items}}
		}
		return &mcode.CellProgram{Items: items}
	}
	if h, err := Generate(nest(1<<31, 1<<31)); err != nil || h.In[w2.ChanY].Words() != 1<<62 {
		t.Errorf("2^62 words: %v", err)
	}
	for _, trips := range [][]int64{{1 << 32, 1 << 31}, {1 << 21, 1 << 21, 1 << 21}} {
		_, err := Generate(nest(trips...))
		if err == nil || !strings.Contains(err.Error(), "12:5: host stream on Y longer than") {
			t.Errorf("trips %v: error %v, want a positioned overflow", trips, err)
		}
	}
	// Two streams of 2^62 words each sum past int64 on one channel only
	// when they share it.
	twice := nest(1<<31, 1<<31)
	twice.Items = append(twice.Items, nest(1<<31, 1<<31).Items...)
	if _, err := Generate(twice); err == nil || !strings.Contains(err.Error(), "longer than") {
		t.Errorf("2·2^62 words on one channel: error %v", err)
	}
	if _, err := Generate(nest(1<<32, 0, 1<<32)); err == nil || !strings.Contains(err.Error(), "12:5: host stream on Y longer than") {
		t.Errorf("overflow under a zero-trip loop: error %v, want a positioned overflow", err)
	}

	loop := &w2.ForStmt{Var: "i"}
	far := func(trips, coef int64) *mcode.CellProgram {
		ext := mcode.AddrInfo{Sym: &w2.Symbol{Name: "a"}, Affine: w2.Affine{Terms: []w2.AffTerm{{Var: loop, Coef: coef}}}}
		return &mcode.CellProgram{Items: []mcode.CodeItem{&mcode.LoopItem{Trips: trips, Step: 1, Src: loop, Body: []mcode.CodeItem{
			&mcode.Straight{Instrs: []*mcode.Instr{{Pos: pos, IO: []mcode.IOOp{{Chan: w2.ChanX, Ext: ext}}}}},
		}}}}
	}
	if _, err := Generate(far(1<<20, 1<<10)); err != nil {
		t.Errorf("addresses up to 2^30: %v", err)
	}
	for _, tc := range [][2]int64{{1 << 20, 1 << 12}, {1 << 20, -(1 << 12)}} {
		_, err := Generate(far(tc[0], tc[1]))
		if err == nil || !strings.Contains(err.Error(), "12:5: external a+") || !strings.Contains(err.Error(), "outside ±2147483647") {
			t.Errorf("%d trips of stride %d: error %v, want a positioned range error", tc[0], tc[1], err)
		}
	}
	// A range past int64 is Bind's refusal.
	const past = "12:5: external a+9223372036854775807*i: the address range overflows 64 bits"
	if _, err := Generate(far(3, math.MaxInt64)); err == nil || !strings.HasSuffix(err.Error(), past) {
		t.Errorf("3 trips of stride 2^63-1: error %v, want %q", err, past)
	}
}

func TestReaderDoesNotAllocate(t *testing.T) {
	h, err := Generate(compileCell(t, workloads.ColorSeg(64, 64, 10), true))
	if err != nil {
		t.Fatal(err)
	}
	var r Reader
	buf := make([]Word, 300)
	if n := testing.AllocsPerRun(10, func() {
		r.Reset(h.In[w2.ChanX])
		r.Read(buf)
		r.Next()
	}); n != 0 {
		t.Errorf("%.0f allocations per Reset+Read+Next", n)
	}
}

// TestReaderResetDeepNest: a stream nested deeper than a reader's own
// loop counters reads right, and allocates its counters once: a second
// Reset keeps them.
func TestReaderResetDeepNest(t *testing.T) {
	items := []mcode.CodeItem{&mcode.Straight{Instrs: []*mcode.Instr{{IO: []mcode.IOOp{{Recv: true, Chan: w2.ChanY, IsLiteral: true, Literal: 1}}}}}}
	for _, n := range []int64{2, 3, 2, 3, 2, 3} {
		items = []mcode.CodeItem{&mcode.LoopItem{Trips: n, Step: 1, Body: items}}
	}
	h, err := Generate(&mcode.CellProgram{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	var r Reader
	buf := make([]Word, 300)
	read := func() int {
		r.Reset(h.In[w2.ChanY])
		return r.Read(buf)
	}
	if n := read(); n != 216 {
		t.Fatalf("read %d words of a 6-deep nest, want 216", n)
	}
	if n := testing.AllocsPerRun(10, func() { read() }); n != 0 {
		t.Errorf("%.0f allocations per Reset+Read of a reader that has read the stream", n)
	}
}

func BenchmarkReader(b *testing.B) {
	for _, tc := range []struct {
		name, src string
	}{
		{"binop", workloads.Binop(512, 512)},
		{"colorseg", workloads.ColorSeg(512, 512, 10)},
	} {
		m, _ := w2.Parse(tc.src)
		info, _ := w2.Analyze(m)
		p, _ := ir.Build(info)
		opt.Optimize(p)
		cg, err := cellgen.Generate(p, cellgen.Options{Pipeline: true})
		if err != nil {
			b.Fatal(err)
		}
		h, err := Generate(cg.Cell)
		if err != nil {
			b.Fatal(err)
		}
		s := h.In[w2.ChanX]
		b.Run(tc.name+"/Read", func(b *testing.B) {
			buf := make([]Word, blockWords)
			var r Reader
			for i := 0; i < b.N; i++ {
				r.Reset(s)
				for r.Read(buf) > 0 {
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Words()), "ns/word")
		})
		b.Run(tc.name+"/Next", func(b *testing.B) {
			var sum int
			var r Reader
			for i := 0; i < b.N; i++ {
				r.Reset(s)
				for w := r.Next(); w != nil; w = r.Next() {
					sum += int(w.Index)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Words()), "ns/word")
		})
	}
}

// TestRefusalTexts pins Generate's refusals byte for byte: a receive
// with no external binding, an external outside its loops' scope or
// outside ±2³¹−1, and a stream whose word count overflows — each with
// the position of its statement.
func TestRefusalTexts(t *testing.T) {
	pos := w2.Pos{Line: 12, Col: 5}
	loop := &w2.ForStmt{Var: "i"}
	ext := func(coef int64) mcode.AddrInfo {
		return mcode.AddrInfo{Sym: &w2.Symbol{Name: "a"}, Base: 3, Affine: w2.Affine{Terms: []w2.AffTerm{{Var: loop, Coef: coef}}}}
	}
	in := func(io mcode.IOOp) mcode.CodeItem {
		return &mcode.Straight{Instrs: []*mcode.Instr{{}, {Pos: pos, IO: []mcode.IOOp{io}}}}
	}
	nest := func(trips int64, body ...mcode.CodeItem) *mcode.LoopItem {
		return &mcode.LoopItem{ID: 4, Trips: trips, Step: 1, Src: loop, Body: body}
	}
	cases := []struct {
		name string
		cell []mcode.CodeItem
		want string
	}{
		{"no external", []mcode.CodeItem{nest(3, in(mcode.IOOp{Recv: true, Chan: w2.ChanX}))},
			"hostgen: 12:5: a receive on channel X has no external binding; the first cell would starve (every receive from the host side needs an external, §4.3)"},
		{"out of scope", []mcode.CodeItem{in(mcode.IOOp{Chan: w2.ChanY, Ext: ext(1)})},
			"hostgen: 12:5: external a+i references loop i outside its scope"},
		{"out of range", []mcode.CodeItem{nest(1<<20, in(mcode.IOOp{Recv: true, Chan: w2.ChanY, Ext: ext(-(1 << 12))}))},
			"hostgen: 12:5: external a+-4096*i resolves to host addresses -4294963197..3, outside ±2147483647"},
		{"word count", []mcode.CodeItem{nest(1<<32, nest(1<<31, in(mcode.IOOp{Chan: w2.ChanX})))},
			"hostgen: 12:5: host stream on X longer than 9223372036854775807 words"},
	}
	for _, tc := range cases {
		_, err := Generate(&mcode.CellProgram{Items: tc.cell})
		if got := fmt.Sprint(err); got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}
}
