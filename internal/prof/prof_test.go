package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"warp/internal/obs"
)

// testProfile builds a small profile by hand: two PCs, one inside a
// loop and one synthetic, counted over two cells.
func testProfile() *SourceProfile {
	dbg := &DebugMap{
		Module: "m",
		NumPCs: 3,
		Source: []string{"module m;", "for i := 0 to 9 do", "  y[i] := x[i]*2.0; {semi;colon}"},
		PCs: []PCInfo{
			{PC: 0, Line: 0},
			{PC: 1, Line: 3, Loops: []LoopFrame{{Var: "i", Line: 2}}},
			{PC: 2, Line: 0, Loops: []LoopFrame{{Var: "i", Line: 2}}}, // scheduled nop in the loop
		},
	}
	pcs := []obs.PCProfile{
		{Busy: []int64{2, 10, 0}, Starved: []int64{0, 3, 0}, Bubble: []int64{1, 0, 5}},
		{Busy: []int64{2, 8, 0}, Starved: []int64{0, 5, 0}, Bubble: []int64{1, 0, 5}},
	}
	return BuildSource(dbg, pcs, 40)
}

func TestBuildSourceAttribution(t *testing.T) {
	p := testProfile()
	if p.Cells != 2 || p.Cycles != 40 {
		t.Fatalf("cells/cycles = %d/%d", p.Cells, p.Cycles)
	}
	// Exactness: every counter lands somewhere.
	if got, want := p.Attributed(), int64(2+10+3+1+5+2+8+5+1+5); got != want {
		t.Fatalf("Attributed = %d, want %d", got, want)
	}
	var lineSum int64
	byLine := map[int]*LineStat{}
	for i := range p.Lines {
		lineSum += p.Lines[i].Total()
		byLine[p.Lines[i].Line] = &p.Lines[i]
	}
	if lineSum != p.Attributed() {
		t.Errorf("line totals %d != attributed %d", lineSum, p.Attributed())
	}
	// The nop at PC 2 sits in loop i: its cycles belong to line 2, the
	// for statement, not the synthetic bucket.
	if l := byLine[2]; l == nil || l.Bubble != 10 {
		t.Errorf("loop-nop attribution wrong: %+v", byLine[2])
	}
	if l := byLine[0]; l == nil || l.Text != "(preamble/pad)" || l.Total() != 6 {
		t.Errorf("synthetic bucket wrong: %+v", byLine[0])
	}
	if l := byLine[3]; l == nil || l.Busy != 18 || l.Starved != 8 {
		t.Errorf("statement line wrong: %+v", byLine[3])
	}
	// ';' in source text must not leak into folded frames.
	for _, ss := range p.Stacks {
		for i, f := range ss.Frames {
			if i > 0 && strings.Contains(f, ";") {
				t.Errorf("frame %q contains the folded separator", f)
			}
		}
	}
}

func TestWriteFolded(t *testing.T) {
	p := testProfile()
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		sep := strings.LastIndexByte(line, ' ')
		if sep < 0 {
			t.Fatalf("bad folded line %q", line)
		}
		var n int64
		for _, ch := range line[sep+1:] {
			if ch < '0' || ch > '9' {
				t.Fatalf("bad count in %q", line)
			}
			n = n*10 + int64(ch-'0')
		}
		sum += n
		if !strings.HasPrefix(line, "m;") && !strings.HasPrefix(line, "m ") {
			t.Errorf("stack does not start at the module root: %q", line)
		}
	}
	if sum != p.Attributed() {
		t.Errorf("folded counts sum to %d, want %d", sum, p.Attributed())
	}
}

func TestMerge(t *testing.T) {
	a, b := testProfile(), testProfile()
	att := a.Attributed()
	a.Merge(b)
	if a.Attributed() != 2*att {
		t.Errorf("merged attributed = %d, want %d", a.Attributed(), 2*att)
	}
	if a.Cycles != 80 {
		t.Errorf("merged cycles = %d, want 80", a.Cycles)
	}
	if a.Cells != 2 {
		t.Errorf("merged cells = %d, want max 2", a.Cells)
	}
	var lineSum int64
	for i := range a.Lines {
		lineSum += a.Lines[i].Total()
	}
	if lineSum != a.Attributed() {
		t.Errorf("merged line totals %d != attributed %d", lineSum, a.Attributed())
	}
	// Same structure: merging must not duplicate lines or stacks.
	if len(a.Lines) != len(b.Lines) || len(a.Stacks) != len(b.Stacks) {
		t.Errorf("merge duplicated entries: %d/%d lines, %d/%d stacks",
			len(a.Lines), len(b.Lines), len(a.Stacks), len(b.Stacks))
	}
	// Merging into an empty profile adopts the other side.
	var zero SourceProfile
	zero.Merge(b)
	if zero.Module != "m" || zero.Attributed() != att {
		t.Errorf("merge into zero: %+v", zero)
	}
	// Nil other side is a no-op.
	before := a.Attributed()
	a.Merge(nil)
	if a.Attributed() != before {
		t.Error("Merge(nil) changed the profile")
	}
}

func TestReport(t *testing.T) {
	p := testProfile()
	rep := p.Report()
	for _, want := range []string{"source profile: m, 2 cells, 40 cycles", "(preamble/pad)", "y[i] := x[i]*2.0"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	// Hottest line first: line 3 (26 cycles) before line 2 (10).
	if i3, i2 := strings.Index(rep, "y[i]"), strings.Index(rep, "for i"); i3 < 0 || i2 < 0 || i3 > i2 {
		t.Errorf("report not sorted hottest-first:\n%s", rep)
	}
}

func TestWritePprof(t *testing.T) {
	p := testProfile()
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// The string table must carry the sample type and the frame names.
	for _, want := range []string{"cycles", "count", "m", "(preamble/pad)"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("profile missing string %q", want)
		}
	}
	// Encoding is deterministic.
	var buf2 bytes.Buffer
	if err := p.WritePprof(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("pprof encoding is not deterministic")
	}
}

func TestSchedProfile(t *testing.T) {
	var nilProf *SchedProfile
	if got := nilProf.Totals(); got != (SchedTotals{}) {
		t.Errorf("nil Totals = %+v", got)
	}
	s := &SchedProfile{
		Loops: []LoopSched{
			{Loop: "i", Line: 4, Trips: 100, Pipelined: true, MII: 2, II: 3, Attempts: 2, Placements: 40, Evictions: 5, SearchNS: 1e6},
			{Loop: "j", Line: 9, Trips: 10, Reason: "non-parallel array subscripts"},
		},
		Skews: []SkewSearch{
			{Channel: "0", Method: "structural", Ops: 200, Skew: 3, NS: 5e5},
			{Channel: "1", Method: "structural", Ops: 36, Pairs: 12, Pruned: 30, Skew: 1},
		},
	}
	tot := s.Totals()
	if tot.Loops != 2 || tot.Pipelined != 1 || tot.Placements != 40 || tot.SkewOps != 236 || tot.SkewPairs != 12 || tot.SkewPruned != 30 {
		t.Errorf("Totals = %+v", tot)
	}
	rep := s.Report()
	for _, want := range []string{
		"scheduler: 2 loops, 1 pipelined",
		"(MII: the first II tried, the largest of the unit, trip-count and recurrence lower bounds)",
		"loop i (line 4, 100 trips): II 3 (MII 2)",
		"non-parallel array subscripts",
		"skew search: 236 points evaluated",
		"0: skew 3 via structural search, 200 points evaluated",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("sched report missing %q:\n%s", want, rep)
		}
	}
}
