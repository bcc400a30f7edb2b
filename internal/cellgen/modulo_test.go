package cellgen

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warp/internal/ir"
	"warp/internal/opt"
	"warp/internal/prof"
	"warp/internal/w2"
	"warp/internal/workloads"
)

// loopCase is one loop the modulo scheduler would be asked to pipeline.
type loopCase struct {
	src   string
	loop  *ir.LoopRegion
	block *ir.Block
	edges []mEdge
	g     *blockGraph // ready for the II search
	base  *blockSchedule
}

func (lc loopCase) String() string {
	return fmt.Sprintf("loop %s (line %d, %d trips)", lc.loop.Loop.Var, lc.loop.Loop.Pos.Line, lc.loop.Trips())
}

// lower compiles src down to IR, optimized or not.
func lower(t testing.TB, src string, optimize bool) *ir.Program {
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
	if optimize {
		opt.Optimize(p)
	}
	return p
}

// pipelinableLoops returns every innermost single-block loop of p, the IR
// of src, whose dependences buildModuloEdges can bound — the loops
// moduloSchedule searches an II for.
func pipelinableLoops(t testing.TB, src string, p *ir.Program) []loopCase {
	t.Helper()
	var out []loopCase
	var visit func(regions []ir.Region)
	visit = func(regions []ir.Region) {
		for _, r := range regions {
			l, ok := r.(*ir.LoopRegion)
			if !ok {
				continue
			}
			visit(l.Body)
			if len(l.Body) != 1 {
				continue
			}
			br, ok := l.Body[0].(*ir.BlockRegion)
			if !ok {
				continue
			}
			edges, ok := buildModuloEdges(br.Block, l.Loop)
			if !ok {
				continue
			}
			g, err := newBlockGraph(br.Block, edges)
			if err != nil {
				t.Fatalf("%v\n%s", err, src)
			}
			base := g.listSchedule()
			g.initSearch()
			out = append(out, loopCase{src: src, loop: l, block: br.Block, edges: edges, g: g, base: base})
		}
	}
	for _, fn := range p.Funcs {
		visit(fn.Regions)
	}
	return out
}

// benchmarkPrograms are the seven pipelined workloads of the benchmark's
// P8 set, at its sizes.
var benchmarkPrograms = []struct{ name, src string }{
	{"polynomial", workloads.Polynomial(10, 100)},
	{"conv1d", workloads.Conv1D(9, 2048)},
	{"binop", workloads.Binop(512, 512)},
	{"colorseg", workloads.ColorSeg(512, 512, 10)},
	{"mandelbrot", workloads.Mandelbrot(32*32, 4)},
	{"fft1024", workloads.FFT(1024)},
	{"matmul32", workloads.Matmul(32)},
}

// sweepLoops is every pipelinable loop of the benchmark programs and of
// `random` random programs drawn from seed.
func sweepLoops(t testing.TB, seed int64, random int) []loopCase {
	var out []loopCase
	for _, p := range benchmarkPrograms {
		out = append(out, pipelinableLoops(t, p.src, lower(t, p.src, true))...)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < random; i++ {
		src, _ := workloads.RandomProgram(rng)
		out = append(out, pipelinableLoops(t, src, lower(t, src, true))...)
	}
	return out
}

// TestModuloScheduleMatchesReference: the scheduler on dense tables is
// the map-based one (reference_test.go) with the maps taken out — at
// every II from the resource bound to the list schedule's length, on
// every pipelinable loop of the benchmark programs and of 600 random
// ones, it accepts exactly when the reference does, with the same offset
// for every node, the same span and node order, after the same number of
// placements and evictions; and the recurrence bound is the same II.
func TestModuloScheduleMatchesReference(t *testing.T) {
	loops, iis, accepted := 0, 0, 0
	for _, lc := range sweepLoops(t, 11, 600) {
		loops++
		lg := lc.g
		res := lg.resMII()
		if got, want := lg.recurrenceBound(res, lc.base.len), refRecurrenceBound(lc.block, lc.edges, res, lc.base.len); got != want {
			t.Errorf("%s: recurrence bound %d, reference %d\n%s", lc, got, want, lc.src)
		}
		for ii := res; ii < lc.base.len; ii++ {
			iis++
			var refLS, ls prof.LoopSched
			want, wantOK := refTryModulo(lc.block, lc.edges, ii, &refLS, 1)
			got, gotOK := lg.tryModulo(ii, &ls)
			if gotOK != wantOK || ls != refLS {
				t.Errorf("%s II %d: ok %v after %d placements, %d evictions; reference ok %v after %d, %d\n%s",
					lc, ii, gotOK, ls.Placements, ls.Evictions, wantOK, refLS.Placements, refLS.Evictions, lc.src)
				continue
			}
			if !gotOK {
				continue
			}
			accepted++
			if got.ii != want.ii || got.span != want.span || len(got.off) != len(want.off) || len(got.nodes) != len(want.nodes) {
				t.Errorf("%s II %d: ii %d span %d with %d offsets, %d nodes; reference ii %d span %d with %d, %d\n%s",
					lc, ii, got.ii, got.span, len(got.off), len(got.nodes), want.ii, want.span, len(want.off), len(want.nodes), lc.src)
				continue
			}
			for i, n := range want.nodes {
				if got.nodes[i] != n || got.off[n] != want.off[n] {
					t.Errorf("%s II %d: node %d is n%d at offset %d; reference n%d at %d\n%s",
						lc, ii, i, got.nodes[i].ID, got.off[got.nodes[i]], n.ID, want.off[n], lc.src)
					break
				}
			}
		}
	}
	t.Logf("%d loops, %d (loop, II) pairs, %d scheduled", loops, iis, accepted)
	if loops < 600 || accepted < 1000 {
		t.Errorf("the sweep is too thin: %d loops, %d schedules compared", loops, accepted)
	}
}

// TestListScheduleMatchesReference: list scheduling on the dense block
// graph is the map-based scheduler (reference_test.go) with the maps
// taken out — on every block of the benchmark programs, of the testdata
// programs and of the 600 random ones the modulo comparison draws,
// optimized and not, it issues every node in the same cycle, lists the
// nodes in the same order and gives the block the same length.  So does
// the graph of every pipelinable loop body, carried edges and all, that a
// pipelining attempt takes its baseline from.  A block whose dependences
// close a cycle, of positive or of zero latency, is refused with the
// reference's error.
func TestListScheduleMatchesReference(t *testing.T) {
	var srcs []string
	for _, p := range benchmarkPrograms {
		srcs = append(srcs, p.src)
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
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 600; i++ {
		src, _ := workloads.RandomProgram(rng)
		srcs = append(srcs, src)
	}

	differs := func(got, want *blockSchedule) string {
		if got.len != want.len || len(got.nodes) != len(want.nodes) {
			return fmt.Sprintf("%d cycles, %d nodes; reference %d, %d", got.len, len(got.nodes), want.len, len(want.nodes))
		}
		for i, n := range want.nodes {
			if got.nodes[i] != n {
				return fmt.Sprintf("node %d is n%d; reference n%d", i, got.nodes[i].ID, n.ID)
			}
		}
		for _, n := range want.block.Nodes {
			if got.issue[n] != want.issue[n] {
				return fmt.Sprintf("n%d issues at %d; reference %d", n.ID, got.issue[n], want.issue[n])
			}
		}
		return ""
	}
	blocks, loops := 0, 0
	for _, src := range srcs {
		for _, optimize := range []bool{true, false} {
			p := lower(t, src, optimize)
			for _, fn := range p.Funcs {
				for _, b := range fn.Blocks {
					blocks++
					want, err := refListSchedule(b)
					if err != nil {
						t.Fatalf("b%d: %v\n%s", b.ID, err, src)
					}
					g, err := newBlockGraph(b, blockEdges(b))
					if err != nil {
						t.Fatalf("b%d: %v\n%s", b.ID, err, src)
					}
					if d := differs(g.listSchedule(), want); d != "" {
						t.Errorf("b%d (optimized %v): %s\n%s", b.ID, optimize, d, src)
					}
				}
			}
			for _, lc := range pipelinableLoops(t, src, p) {
				loops++
				want, _ := refListSchedule(lc.block)
				if d := differs(lc.base, want); d != "" {
					t.Errorf("%s (optimized %v), from the loop body's graph: %s\n%s", lc, optimize, d, src)
				}
			}
		}
	}
	t.Logf("%d blocks, %d loop bodies", blocks, loops)
	if blocks < 2000 || loops < 600 {
		t.Errorf("the sweep is too thin: %d blocks, %d loop bodies", blocks, loops)
	}

	c := &ir.Node{ID: 1, Op: ir.OpConst}
	fadd := &ir.Node{ID: 2, Op: ir.OpFadd}
	fmul := &ir.Node{ID: 3, Op: ir.OpFmul, Args: []*ir.Node{fadd, c}}
	fadd.Args = []*ir.Node{fmul, c}
	move := &ir.Node{ID: 4, Op: ir.OpWrite, Args: []*ir.Node{c}}
	sub := &ir.Node{ID: 5, Op: ir.OpFsub, Args: []*ir.Node{c, c}, Deps: []*ir.Node{move}}
	move.Deps = []*ir.Node{sub}
	for _, b := range []*ir.Block{
		{ID: 7, Nodes: []*ir.Node{c, fadd, fmul}}, // operands: 2·FPULatency around
		{ID: 8, Nodes: []*ir.Node{c, move, sub}},  // ordering edges of latency 0
	} {
		_, want := refListSchedule(b)
		_, err := newBlockGraph(b, blockEdges(b))
		if want == nil || err == nil || err.Error() != want.Error() || want.Error() != fmt.Sprintf("cellgen: dependence cycle in block b%d", b.ID) {
			t.Errorf("b%d: error %v; reference %v", b.ID, err, want)
		}
	}
}

// TestRecurrenceBoundSkipsOnlyInfeasibleIIs: the II search starts at
// lowerBound and passes over every later II refuted rules out, instead of
// trying each II from resMII.  That changes nothing but the attempt
// counters only if every II it no longer tries was one no schedule would
// have been accepted at — checked on every pipelinable loop of the
// benchmark programs and of 200 random ones: at each skipped II the
// reference scheduler, its eviction budget raised 16×, either fails or
// finds a schedule of more stages than the loop has trips (which
// emitModulo rejects: R = (trips − (S−1))/u < 1); and on loops of ≤ 8
// operations, and wherever it is refuted that skips the II (mandelbrot's
// 36 and 37), a complete search over every placement finds none either.
// tryModulo is a pure function of (block, edges, II), so the first II it
// accepts is then the one the search from resMII accepted.
func TestRecurrenceBoundSkipsOnlyInfeasibleIIs(t *testing.T) {
	var loops, raised, byTrips, byRecurrence, byUnits, exhaustive int
	for _, lc := range sweepLoops(t, 7, 200) {
		loops++
		lg := lc.g
		res, trips := lg.resMII(), lc.loop.Trips()
		mii, _ := lg.lowerBound(res, trips, lc.base.len)
		if mii > res {
			raised++
		}
		tripII := (lg.crit + trips) / trips
		recII := lg.recurrenceBound(res, lc.base.len)
		for ii := res; ii < lc.base.len; ii++ {
			units := false
			switch {
			case ii < tripII:
				byTrips++
			case ii < recII:
				byRecurrence++
			case ii < mii || lg.refuted(ii):
				byUnits++
				units = true
			default:
				continue // the search tries this II
			}
			if ms, ok := refTryModulo(lc.block, lc.edges, ii, &prof.LoopSched{}, 16); ok && (ms.span+ii-1)/ii <= trips {
				t.Errorf("%s: the search skips II %d (bounds: trips %d, recurrence %d, all %d; resMII %d), but the reference schedules it in %d stages\n%s",
					lc, ii, tripII, recII, mii, res, (ms.span+ii-1)/ii, lc.src)
			}
			if len(lg.nodes) <= 8 || units {
				exhaustive++
				if off := searchAllPlacements(lg, ii, trips); off != nil {
					t.Errorf("%s: the search skips II %d (bounds: trips %d, recurrence %d, all %d; resMII %d), but offsets %v are a schedule of ≤ %d stages\n%s",
						lc, ii, tripII, recII, mii, res, off, trips, lc.src)
				}
			}
		}
	}
	t.Logf("%d loops, the bound above resMII on %d of them; IIs skipped: %d by trip count, %d by recurrences, %d by recurrences and units; %d checked exhaustively",
		loops, raised, byTrips, byRecurrence, byUnits, exhaustive)
	if raised == 0 || byTrips == 0 || byRecurrence < 29 || byUnits < 2 || exhaustive == 0 {
		t.Errorf("a bound never bites; mandelbrot alone skips 29 IIs by recurrences and 2 by units")
	}
}

// searchAllPlacements is the complete search the II bounds are checked
// against on small loops: it returns offsets of a schedule at ii that
// emitModulo's stage test would accept — every dependence
// t(to) + dist·II ≥ t(from) + lat met, no unit over capacity in any
// residue, at most trips stages — or nil when there is none.  It knows
// nothing of longest paths or windows: it branches on one operation's
// offset at a time (smallest domain first) and, after each choice, only
// tightens the others' [lo, hi] along single edges until nothing moves.
//
// Offsets range over [0, horizon): trips·II is the stage limit itself,
// and if any schedule exists one does with every offset under
// II·((n−1)·c + 1), c = ⌈(maxLat−1)/II⌉ + 1 — keep the residues, and the
// stage numbers k solve difference constraints k(to) − k(from) ≥ c(e)
// with c(e) ≤ c, whose least non-negative solution is a longest path of
// at most n−1 edges.
func searchAllPlacements(g *blockGraph, ii, trips int64) []int64 {
	n := len(g.nodes)
	var maxLat int64 = 1
	for _, e := range g.edges {
		maxLat = max(maxLat, e.lat)
	}
	horizon := min(trips, int64(n-1)*((maxLat-1+ii-1)/ii+1)+1) * ii

	lo, hi, fixed := make([]int64, n), make([]int64, n), make([]bool, n)
	for i := range hi {
		hi[i] = horizon - 1
	}
	tighten := func() bool {
		for changed := true; changed; {
			changed = false
			for _, e := range g.edges {
				if v := lo[e.from] + e.lat - e.dist*ii; v > lo[e.to] {
					lo[e.to], changed = v, true
				}
				if v := hi[e.to] - e.lat + e.dist*ii; v < hi[e.from] {
					hi[e.from], changed = v, true
				}
				if lo[e.to] > hi[e.to] || lo[e.from] > hi[e.from] {
					return false
				}
			}
		}
		return true
	}
	var search func() bool
	search = func() bool {
		if !tighten() {
			return false
		}
		pick := -1
		for m := range fixed {
			if !fixed[m] && (pick < 0 || hi[m]-lo[m] < hi[pick]-lo[pick]) {
				pick = m
			}
		}
		if pick < 0 {
			return true
		}
		savedLo, savedHi := append([]int64(nil), lo...), append([]int64(nil), hi...)
		for v := savedLo[pick]; v <= savedHi[pick]; v++ {
			sharing := 0
			for m := range fixed {
				if fixed[m] && g.row[m] == g.row[pick] && lo[m]%ii == v%ii {
					sharing++
				}
			}
			if sharing < int(g.rowCap[g.row[pick]]) {
				lo[pick], hi[pick], fixed[pick] = v, v, true
				if search() {
					return true
				}
			}
			copy(lo, savedLo)
			copy(hi, savedHi)
			fixed[pick] = false
		}
		return false
	}
	if search() {
		return lo
	}
	return nil
}

// TestSearchAllPlacementsFindsSchedules keeps the oracle honest from the
// other side: wherever the scheduler succeeds on a small loop within the
// trip count, the complete search must find a schedule too.
func TestSearchAllPlacementsFindsSchedules(t *testing.T) {
	checked := 0
	for _, lc := range sweepLoops(t, 7, 200) {
		lg := lc.g
		if len(lg.nodes) > 8 {
			continue
		}
		trips := lc.loop.Trips()
		for ii := lg.resMII(); ii < lc.base.len; ii++ {
			ms, ok := lg.tryModulo(ii, &prof.LoopSched{})
			if !ok || (ms.span+ii-1)/ii > trips {
				continue
			}
			checked++
			if searchAllPlacements(lg, ii, trips) == nil {
				t.Errorf("%s II %d: scheduled with span %d, but the complete search finds nothing\n%s", lc, ii, ms.span, lc.src)
			}
		}
	}
	if checked < 100 {
		t.Errorf("only %d schedules checked", checked)
	}
}

// TestFirstIITriedIsAccepted pins, per loop of the benchmark programs the
// search looks at, the bound it starts from, the II it accepts and the
// attempts in between.  The aim (ROADMAP item 2) is attempts = 1
// everywhere; a loop that needs more is listed with the reason, and the
// search may not get worse on it.
func TestFirstIITriedIsAccepted(t *testing.T) {
	type row struct {
		program, loop string
		line          int
		mii, ii       int // ii 0: not pipelined
		attempts      int
	}
	want := []row{
		{"polynomial", "i", 13, 1, 1, 1},
		{"polynomial", "i", 18, 1, 1, 1},
		{"conv1d", "i", 14, 1, 1, 1},
		{"conv1d", "i", 20, 1, 1, 1},
		{"binop", "j", 12, 1, 1, 1},
		{"colorseg", "i", 19, 4, 4, 1},
		// 21 operations in 5–6 stages at IIs 8–10: the values times the
		// kernel copies their lifetimes need exceed the register file
		// (emitModulo's register-pressure reject); at 11 they fit.
		{"colorseg", "i", 33, 8, 11, 4},
		// Both refutations: the recurrence alone passes 36 and 37.
		{"mandelbrot", "k", 16, 38, 38, 1},
		{"fft1024", "t", 16, 1, 1, 1},
		// Two trips, body of one cycle: a second stage has no iteration.
		{"fft1024", "c", 30, 1, 0, 1},
		// The butterflies.  Their span is 22 or more at every II — six
		// adds queue on one unit behind the multiplies — which no bound
		// here sees (the trip-count bound knows the 16-cycle dependence
		// chain only), so small trip counts are rejected at emission: 1
		// trip wants one stage, 2 and 4 trips run out of iterations for
		// the stages plus unrolled kernel until II 15 and 8.
		{"fft1024", "j", 37, 17, 0, 5},
		{"fft1024", "j", 54, 9, 15, 7},
		{"fft1024", "j", 71, 6, 8, 3},
		{"fft1024", "j", 88, 6, 6, 1},
		{"fft1024", "j", 105, 6, 6, 1},
		{"fft1024", "j", 122, 6, 6, 1},
		{"fft1024", "j", 139, 6, 6, 1},
		{"fft1024", "j", 156, 6, 6, 1},
		{"fft1024", "j", 173, 6, 6, 1},
		{"fft1024", "j", 190, 6, 6, 1},
		{"fft1024", "i", 205, 1, 1, 1},
		{"matmul32", "j", 16, 1, 1, 1},
		{"matmul32", "j", 21, 1, 1, 1},
		// A one-cycle body: nothing below the list schedule to try.
		{"matmul32", "j", 25, 1, 0, 0},
		{"matmul32", "k", 31, 1, 1, 1},
		{"matmul32", "j", 36, 1, 1, 1},
	}
	var got []row
	for _, p := range benchmarkPrograms {
		for _, l := range compileCell(t, p.src, Options{Pipeline: true}).Sched.Loops {
			if l.MII != 0 {
				got = append(got, row{p.name, l.Loop, l.Line, l.MII, l.II, l.Attempts})
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d loops searched, want %d:\n%+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got  {program loop line MII II attempts} %+v\nwant %+v", got[i], want[i])
		}
	}
}

// TestNotPipelinedReasons pins the text a loop's record carries when the
// search gives up, one loop per reason.  With zero attempts the reason
// names the bound that left no II to try.
func TestNotPipelinedReasons(t *testing.T) {
	loop := func(trips int, body string) string {
		return fmt.Sprintf(`
module t (xs in, ys out)
float xs[64];
float ys[64];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float v; float s;
        int i;
        s := 0.0;
        for i := 0 to %d do begin
%s
        end;
        send (R, X, s, ys[0]);
    end
    call f;
end
`, trips-1, body)
	}
	for _, tc := range []struct {
		name, src, want string
	}{
		{
			// One iteration is one stage, and one stage holds the whole
			// dependence chain (receive, two multiplies deep, send).
			"trips",
			loop(1, `
            receive (L, X, v, xs[i]);
            v := ((v * v) * v) * v;
            send (R, X, v, ys[i]);`),
			"loop i (line 12, 1 trips): not pipelined (trip count 1 allows no II below the list schedule (needs ≥ 12)) after 0 attempts, 0 placements",
		},
		{
			// s feeds itself through a multiply, an add and the move
			// home: 11 cycles an iteration whatever the schedule.
			"recurrence",
			loop(32, `
            s := s * 2.0 + 1.0;`),
			"loop i (line 12, 32 trips): not pipelined (recurrence and resources need II ≥ 11) after 0 attempts, 0 placements",
		},
		{
			// fft1024's one-trip butterfly: every II schedules, none in
			// one stage.
			"emission",
			workloads.FFT(1024),
			"loop j (line 37, 1 trips): not pipelined (no II in [17, 22) accepted: 0 out of eviction budget, 0 register pressure, 5 too few trips) after 5 attempts, 108 placements",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report := compileCell(t, tc.src, Options{Pipeline: true}).Sched.Report()
			if !strings.Contains(report, tc.want+"\n") {
				t.Errorf("scheduler report lacks\n  %s\ngot\n%s", tc.want, report)
			}
		})
	}
}

// benchmarkModuloSchedule times the II search alone — the block graph, the
// lower bounds and tryModulo up to the first II it schedules — on every
// pipelinable loop of one program; emission is left out.
func benchmarkModuloSchedule(b *testing.B, src string) {
	loops := pipelinableLoops(b, src, lower(b, src, true))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lc := range loops {
			lg, _ := newBlockGraph(lc.block, lc.edges)
			lg.initSearch()
			mii, _ := lg.lowerBound(lg.resMII(), lc.loop.Trips(), lc.base.len)
			var ls prof.LoopSched
			for ii := mii; ii < lc.base.len; ii++ {
				if _, ok := lg.tryModulo(ii, &ls); ok {
					break
				}
			}
		}
	}
}

func BenchmarkModuloSchedule_Mandelbrot(b *testing.B) {
	benchmarkModuloSchedule(b, workloads.Mandelbrot(32*32, 4))
}
func BenchmarkModuloSchedule_FFT1024(b *testing.B) {
	benchmarkModuloSchedule(b, workloads.FFT(1024))
}
func BenchmarkModuloSchedule_ColorSeg(b *testing.B) {
	benchmarkModuloSchedule(b, workloads.ColorSeg(512, 512, 10))
}
