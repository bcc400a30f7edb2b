package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSpanTreeDeterministic drives a trace on a hand-advanced clock and
// checks the recorded tree: parent links, exact durations, attributes,
// the attached run summary, and compile phases filed under the cache
// span.
func TestSpanTreeDeterministic(t *testing.T) {
	var now time.Duration
	tr := NewTraceClock(func() time.Duration { return now })

	root := tr.StartSpan("request", nil)
	now = 5 * time.Millisecond
	cache := tr.StartSpan("cache", root)
	cache.Annotate("result", "miss")
	// The compilation ran two phases, 2ms and 3ms, filed once it is done.
	anchor := cache.Now()
	now = 10 * time.Millisecond
	cache.AddPhases(anchor, []PhaseStat{
		{Name: "parse", Seconds: 0.002, Size: 34},
		{Name: "cellgen", Seconds: 0.003, Size: 120, Note: "2 loops pipelined", Start: 0.002},
	})
	cache.End()
	now = 12 * time.Millisecond
	queue := tr.StartSpan("queue-wait", root)
	now = 15 * time.Millisecond
	queue.End()
	queue.End() // double End keeps the first end time
	run := tr.StartSpan("run", root)
	run.AttachSummary(Summary{Cycles: 225, Cells: 10})
	now = 40 * time.Millisecond
	run.End()
	root.End()

	spans := tr.Spans()
	byName := map[string]*SpanRecord{}
	for i := range spans {
		byName[spans[i].Name] = &spans[i]
	}
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6: %+v", len(spans), spans)
	}
	if r := byName["request"]; r.Parent != -1 || r.DurNS() != int64(40*time.Millisecond) {
		t.Errorf("root = %+v, want parent -1, 40ms", r)
	}
	for name, wantParent := range map[string]int{
		"cache": byName["request"].ID, "queue-wait": byName["request"].ID,
		"run": byName["request"].ID, "parse": byName["cache"].ID,
		"cellgen": byName["cache"].ID,
	} {
		if byName[name] == nil {
			t.Fatalf("span %q missing", name)
		}
		if byName[name].Parent != wantParent {
			t.Errorf("%s.Parent = %d, want %d", name, byName[name].Parent, wantParent)
		}
	}
	if d := byName["cache"].DurNS(); d != int64(5*time.Millisecond) {
		t.Errorf("cache duration = %d, want 5ms", d)
	}
	if d := byName["queue-wait"].DurNS(); d != int64(3*time.Millisecond) {
		t.Errorf("queue-wait duration = %d (double-End must keep the first), want 3ms", d)
	}
	// Phase spans sit at the anchor plus their own offsets.
	if p := byName["parse"]; p.StartNS != int64(5*time.Millisecond) || p.DurNS() != int64(2*time.Millisecond) {
		t.Errorf("parse = [%d,%d], want [5ms,7ms]", p.StartNS, p.EndNS)
	}
	if p := byName["cellgen"]; p.StartNS != int64(7*time.Millisecond) || p.DurNS() != int64(3*time.Millisecond) {
		t.Errorf("cellgen = [%d,%d], want [7ms,10ms]", p.StartNS, p.EndNS)
	}
	if s := byName["run"].Summary; s == nil || s.Cycles != 225 || s.Cells != 10 {
		t.Errorf("run summary = %+v, want cycles 225, cells 10", byName["run"].Summary)
	}
	if a := byName["cache"].Attrs; len(a) != 1 || a[0].Key != "result" || a[0].Value != "miss" {
		t.Errorf("cache attrs = %+v", a)
	}
	// Children never extend past the root: the tree's durations must
	// sum consistently with the total.
	var childSum int64
	for _, name := range []string{"cache", "queue-wait", "run"} {
		childSum += byName[name].DurNS()
	}
	if total := byName["request"].DurNS(); childSum > total {
		t.Errorf("direct children sum to %d > root %d", childSum, total)
	}
}

// TestSpanDisabledZeroAlloc pins the disabled-trace contract with the
// same pattern that pins the no-op Recorder: a nil *Trace must make the
// whole span API free.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	var tr *Trace
	phases := []PhaseStat{{Name: "parse", Seconds: 0.001, Size: 10, Note: "n"}}
	allocs := testing.AllocsPerRun(100, func() {
		root := tr.StartSpan("request", nil)
		child := tr.StartSpan("cache", root)
		child.Annotate("result", "hit")
		child.AttachSummary(Summary{})
		child.End()
		child.AddPhases(child.Now(), phases)
		root.End()
		if tr.Spans() != nil {
			t.Fatal("disabled trace returned spans")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled trace allocated %.1f times per run, want 0", allocs)
	}
}

// TestSpanAddPhases is the table for the one adapter between compile
// timelines and request spans: every phase lands at anchor+Start for
// Seconds under the receiving span — offsets are taken as recorded,
// never re-serialized — and the attributes are size, then note when
// there is one.
func TestSpanAddPhases(t *testing.T) {
	ms := func(f float64) int64 { return int64(f * float64(time.Millisecond)) }
	cases := []struct {
		name   string
		anchor time.Duration
		phases []PhaseStat
		want   [][2]int64 // [start, end] per phase
		attrs  [][]SpanAttr
	}{
		{name: "no phases", anchor: time.Millisecond},
		{
			name:   "serial chain offset by the anchor",
			anchor: 5 * time.Millisecond,
			phases: []PhaseStat{
				{Name: "parse", Seconds: 0.002, Size: 34},
				{Name: "cellgen", Seconds: 0.003, Size: 120, Note: "2 loops pipelined", Start: 0.002},
			},
			want: [][2]int64{{ms(5), ms(7)}, {ms(7), ms(10)}},
			attrs: [][]SpanAttr{
				{{"size", "34"}},
				{{"size", "120"}, {"note", "2 loops pipelined"}},
			},
		},
		{
			name:   "overlapping lanes keep their own offsets",
			anchor: 0,
			phases: []PhaseStat{
				{Name: "skew", Seconds: 0.004, Size: 14, Start: 0.010},
				{Name: "iugen", Seconds: 0.001, Size: 40, Start: 0.010},
				{Name: "hostgen", Seconds: 0.006, Size: 900, Start: 0.0105},
			},
			want: [][2]int64{{ms(10), ms(14)}, {ms(10), ms(11)}, {ms(10.5), ms(16.5)}},
			attrs: [][]SpanAttr{
				{{"size", "14"}},
				{{"size", "40"}},
				{{"size", "900"}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTraceClock(func() time.Duration { return time.Second })
			root := tr.StartSpan("request", nil)
			cache := tr.StartSpan("cache", root)
			cache.AddPhases(tc.anchor, tc.phases)
			spans := tr.Spans()[2:]
			if len(spans) != len(tc.phases) {
				t.Fatalf("%d phase spans, want %d", len(spans), len(tc.phases))
			}
			for i, sp := range spans {
				if sp.Name != tc.phases[i].Name || sp.Parent != 1 || sp.ID != 2+i {
					t.Errorf("span %d = %q id %d under %d, want %q id %d under the cache span", i, sp.Name, sp.ID, sp.Parent, tc.phases[i].Name, 2+i)
				}
				if got := [2]int64{sp.StartNS, sp.EndNS}; got != tc.want[i] {
					t.Errorf("%s = %v, want %v", sp.Name, got, tc.want[i])
				}
				if !reflect.DeepEqual(sp.Attrs, tc.attrs[i]) {
					t.Errorf("%s attrs = %v, want %v", sp.Name, sp.Attrs, tc.attrs[i])
				}
			}
		})
	}
	t.Run("nil span files nothing and allocates nothing", func(t *testing.T) {
		var sp *Span
		phases := cases[1].phases
		if allocs := testing.AllocsPerRun(100, func() { sp.AddPhases(sp.Now(), phases) }); allocs != 0 {
			t.Errorf("nil span allocated %.1f times per AddPhases, want 0", allocs)
		}
	})
}

// TestWriteChromeSpans checks the span export parses as a Chrome trace
// and carries every span with the fields Perfetto requires.
func TestWriteChromeSpans(t *testing.T) {
	var now time.Duration
	tr := NewTraceClock(func() time.Duration { return now })
	root := tr.StartSpan("request", nil)
	now = time.Millisecond
	run := tr.StartSpan("run", root)
	run.AttachSummary(Summary{Cycles: 719, Cells: 10})
	now = 2 * time.Millisecond
	run.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("span trace is not valid JSON: %v\n%s", err, buf.String())
	}
	names := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"request", "run"} {
		if !names[want] {
			t.Errorf("no %q event in span trace", want)
		}
	}
	if !strings.Contains(buf.String(), `"cycles":719`) {
		t.Error("run summary cycles not exported to the trace args")
	}
}

// TestSummarizeZeroProfile is the empty-profile guard: a request that
// fails before RunStart leaves a zero-value (or nil) profile, and its
// summary must be all zeros — never NaN utilization leaking into
// metrics or logs.
func TestSummarizeZeroProfile(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Profile
	}{
		{"nil", nil},
		{"zero-value", &Profile{}},
		{"cells-no-cycles", &Profile{Cells: 10, Cell: make([]CellProfile, 10)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.p.Summarize()
			for name, v := range map[string]float64{
				"BusyFrac": s.BusyFrac, "AddUtil": s.AddUtil, "MulUtil": s.MulUtil,
				"StarvedFrac": s.StarvedFrac, "BubbleFrac": s.BubbleFrac,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want finite zero", name, v)
				}
				if v != 0 {
					t.Errorf("%s = %v, want 0 on an empty profile", name, v)
				}
			}
			if s.PeakQueue != 0 || s.PeakQueueAt != "" {
				t.Errorf("peak queue = %d at %q, want zero", s.PeakQueue, s.PeakQueueAt)
			}
		})
	}
	// The text report path must not print NaN either.
	if rep := (&Profile{}).UtilizationReport(); strings.Contains(rep, "NaN") {
		t.Errorf("UtilizationReport on a zero profile prints NaN:\n%s", rep)
	}
}

// TestSummarizePartialProfile covers profiles a failed or truncated run
// leaves behind: cycles counted but no per-cell records, a mix of
// active and never-started cells, fewer cell records than the declared
// cell count.  Every fraction must stay finite and within [0, 1].
func TestSummarizePartialProfile(t *testing.T) {
	cases := []struct {
		name string
		p    *Profile
	}{
		{"cycles-no-cells", &Profile{Cycles: 500, Cells: 4}},
		{"some-cells-idle", &Profile{Cycles: 100, Cells: 3, Cell: []CellProfile{
			{Busy: 40, Starved: 10, Bubble: 5, AddOps: 30, MulOps: 25},
			{}, // never started
			{Busy: 20, Bubble: 20},
		}}},
		{"fewer-records-than-cells", &Profile{Cycles: 200, Cells: 8, Cell: []CellProfile{
			{Busy: 50, AddOps: 50, MulOps: 50},
		}}},
		{"all-starved", &Profile{Cycles: 64, Cells: 1, Cell: []CellProfile{
			{Starved: 64},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.p.Summarize()
			if s.Cycles != tc.p.Cycles || s.Cells != tc.p.Cells {
				t.Errorf("summary carries cycles=%d cells=%d, want %d/%d",
					s.Cycles, s.Cells, tc.p.Cycles, tc.p.Cells)
			}
			for name, v := range map[string]float64{
				"BusyFrac": s.BusyFrac, "AddUtil": s.AddUtil, "MulUtil": s.MulUtil,
				"StarvedFrac": s.StarvedFrac, "BubbleFrac": s.BubbleFrac,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want finite", name, v)
				}
				if v < 0 || v > 1 {
					t.Errorf("%s = %v, want within [0, 1]", name, v)
				}
			}
			// Busy, starved and bubble partition the active window.
			if total := s.BusyFrac + s.StarvedFrac + s.BubbleFrac; total > 1.0001 {
				t.Errorf("stall attribution sums to %v, want <= 1", total)
			}
		})
	}

	// Spot-check the mixed case's arithmetic: active = 40+10+5 + 0 +
	// 20+20 = 95; busy 60/95, starved 10/95.
	s := cases[1].p.Summarize()
	if got, want := s.BusyFrac, 60.0/95.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("mixed-case BusyFrac = %v, want %v", got, want)
	}
	if got, want := s.StarvedFrac, 10.0/95.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("mixed-case StarvedFrac = %v, want %v", got, want)
	}
	if got, want := s.AddUtil, 30.0/95.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("mixed-case AddUtil = %v, want %v", got, want)
	}
}

// failingWriter errors every write after the first n bytes have been
// accepted, simulating a disk filling up mid-stream.
type failingWriter struct {
	n   int
	err error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// TestChromeTracerWriteError pins the sticky-error path: a writer that
// fails mid-stream must surface its error from Close(), and the tracer
// must go quiet (not panic or spin) after the failure.
func TestChromeTracerWriteError(t *testing.T) {
	boom := errors.New("disk full")
	fw := &failingWriter{n: 1 << 12, err: boom}
	tr := NewChromeTracer(fw)
	tr.RunStart(4, 3, 4)
	// Emit far more than the 4KiB the writer accepts plus the tracer's
	// 64KiB buffer, so the failure strikes mid-stream, not at Close.
	for cyc := int64(0); cyc < 20000; cyc++ {
		for c := 0; c < 4; c++ {
			tr.Issue(cyc, c, UnitAdd)
			tr.QueuePush(cyc, c, QueueX, int(cyc%8))
		}
	}
	tr.RunEnd(20000)
	if err := tr.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close() = %v, want the writer's error", err)
	}
	// A second Close keeps reporting the sticky error.
	if err := tr.Close(); !errors.Is(err, boom) {
		t.Fatalf("second Close() = %v, want the sticky error", err)
	}
}

// TestChromeTracerCloseError covers the complementary path: the stream
// fits the tracer's buffer entirely, so the failure can only surface at
// the final flush — Close must still report it.
func TestChromeTracerCloseError(t *testing.T) {
	boom := errors.New("pipe closed")
	tr := NewChromeTracer(&failingWriter{n: 0, err: boom})
	tr.Phase(PhaseStat{Name: "parse", Seconds: 0.001, Size: 10})
	if err := tr.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close() = %v, want the writer's error", err)
	}
}
