package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNopZeroAlloc pins the hot-path contract: driving the no-op
// recorder through every event method allocates nothing.  The
// simulator calls these per cycle per cell, so a single boxing
// allocation here would dominate a run.
func TestNopZeroAlloc(t *testing.T) {
	r := Nop()
	allocs := testing.AllocsPerRun(100, func() {
		r.RunStart(10, 6, 4)
		r.CellStart(4, 0)
		r.Issue(5, 0, UnitAdd)
		r.Issue(5, 0, UnitMul)
		r.MemRef(5, 0, 0, 42, false)
		r.QueuePush(5, 0, QueueX, 3)
		r.QueuePop(6, 0, QueueY, 2)
		r.Stall(7, 0, StallQueueEmpty)
		r.CellFinish(8, 0)
		r.RunEnd(9)
	})
	if allocs != 0 {
		t.Fatalf("no-op recorder allocated %.1f times per run, want 0", allocs)
	}
}

func TestEnabled(t *testing.T) {
	if Enabled(nil) {
		t.Error("Enabled(nil) = true")
	}
	if Enabled(Nop()) {
		t.Error("Enabled(Nop()) = true")
	}
	if !Enabled(&realRecorder{}) {
		t.Error("Enabled(real recorder) = false")
	}
}

// realRecorder is a minimal real (non-no-op) recorder.
type realRecorder struct{ nopRecorder }

func TestEnumStrings(t *testing.T) {
	cases := []struct{ got, want string }{
		{UnitAdd.String(), "add"},
		{UnitMul.String(), "mul"},
		{UnitMov.String(), "mov"},
		{QueueX.String(), "X"},
		{QueueY.String(), "Y"},
		{QueueAdr.String(), "Adr"},
		{StallSkewLead.String(), "skew-lead"},
		{StallQueueEmpty.String(), "queue-empty"},
		{StallBubble.String(), "bubble"},
		{StallQueueFull.String(), "queue-full"},
		{StallDrain.String(), "drain"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

// chromeDoc is the shape Perfetto expects from the JSON object format.
type chromeDoc struct {
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	TraceEvents     []json.RawMessage `json:"traceEvents"`
}

// TestChromeTracerJSON drives a small synthetic run through the tracer
// and checks the output is a well-formed trace: parses as JSON and every
// event carries the ph, ts, pid and tid fields Perfetto requires.
func TestChromeTracerJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChromeTracer(&buf)
	tr.Phase(PhaseStat{Name: "parse", Seconds: 0.0012, Size: 34})
	tr.Phase(PhaseStat{Name: "cellgen", Seconds: 0.0034, Size: 120, Note: "2 loops pipelined", Start: 0.0012})
	tr.RunStart(2, 3, 4)
	tr.Stall(0, 1, StallSkewLead)
	tr.Stall(1, 1, StallSkewLead)
	tr.Stall(2, 1, StallSkewLead) // coalesces with the two above
	tr.CellStart(0, 0)
	tr.Issue(0, 0, UnitAdd)
	tr.Issue(0, 0, UnitMul)
	tr.MemRef(0, 0, 0, 17, false)
	tr.MemRef(1, 0, 1, 23, true)
	tr.QueuePush(0, 0, QueueX, 1)
	tr.QueuePop(1, 0, QueueX, 0)
	tr.Stall(2, 0, StallQueueEmpty)
	tr.CellStart(3, 1)
	tr.CellFinish(5, 0)
	tr.Stall(6, 0, StallDrain)
	tr.CellFinish(8, 1)
	tr.RunEnd(9)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	names := map[string]int{}
	for i, raw := range doc.TraceEvents {
		var ev map[string]any
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("event %d is not an object: %v", i, err)
		}
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %s", i, field, raw)
			}
		}
		names[ev["name"].(string)]++
	}
	// The three skew-lead stalls of cell 1 must coalesce into one slice.
	if n := names["skew-lead"]; n != 1 {
		t.Errorf("skew-lead slices = %d, want 1 (coalesced)", n)
	}
	for _, want := range []string{"active", "add", "mul", "load", "store", "cell0.X", "queue-empty", "drain", "parse", "cellgen"} {
		if names[want] == 0 {
			t.Errorf("no %q event in trace", want)
		}
	}
}

// sampleProfile builds a small hand-filled profile for report tests.
func sampleProfile() *Profile {
	return &Profile{
		Cells:  2,
		Cycles: 100,
		Skew:   6,
		Lead:   4,
		Cell: []CellProfile{
			{
				Start: 4, Finish: 93,
				AddOps: 70, MulOps: 60, MovOps: 10, Loads: 20, Stores: 5,
				Busy: 80, Starved: 6, Bubble: 4, SkewLead: 0, Drain: 6,
				Depth: []DepthProfile{{Cycles: 10, AddOps: 2}, {Cycles: 80, AddOps: 68, MulOps: 60}},
			},
			{
				Start: 10, Finish: 99,
				AddOps: 70, MulOps: 60, MovOps: 10, Loads: 20, Stores: 5,
				Busy: 82, Starved: 8, Bubble: 0, SkewLead: 6, Drain: 0,
				Depth: []DepthProfile{{Cycles: 10, AddOps: 2}, {Cycles: 80, AddOps: 68, MulOps: 60}},
			},
		},
		Queues: []QueueProfile{
			{Name: "cell0.X", Cell: 0, Queue: QueueX, HighWater: 12, Pushes: 90, Pops: 90,
				Hist: []int64{50, 30, 20}},
			{Name: "cell1.Y", Cell: 1, Queue: QueueY, HighWater: 30, Pushes: 80, Pops: 80,
				Hist: []int64{10, 40, 50}},
			{Name: "cell0.Adr", Cell: 0, Queue: QueueAdr, HighWater: 64, Pushes: 200, Pops: 200,
				Hist: []int64{0, 100, 100}},
		},
		HostStallX: 3,
	}
}

func TestProfileMaxQueue(t *testing.T) {
	p := sampleProfile()
	// The Adr queue's higher mark must not win: MaxQueue is over the
	// data queues only, preserving the old Stats.MaxQueue meaning.
	max, name := p.MaxQueue()
	if max != 30 || name != "cell1.Y" {
		t.Errorf("MaxQueue() = %d, %q; want 30, cell1.Y", max, name)
	}
}

func TestCellProfileHelpers(t *testing.T) {
	c := &sampleProfile().Cell[0]
	if got := c.Active(); got != 90 {
		t.Errorf("Active() = %d, want 90", got)
	}
	in := c.Inner()
	if in == nil || in.Cycles != 80 || in.AddOps != 68 {
		t.Errorf("Inner() = %+v, want the depth-1 profile", in)
	}
	empty := &CellProfile{}
	if empty.Inner() != nil {
		t.Error("Inner() of an idle cell should be nil")
	}
}

func TestQueueProfileStats(t *testing.T) {
	q := &sampleProfile().Queues[0] // hist 50/30/20 over occ 0/1/2
	if got := q.meanOcc(); got < 0.69 || got > 0.71 {
		t.Errorf("meanOcc() = %v, want 0.70", got)
	}
	if got := q.pctOcc(0.50); got != 1 {
		t.Errorf("p50 = %d, want 1", got)
	}
	if got := q.pctOcc(0.95); got != 2 {
		t.Errorf("p95 = %d, want 2", got)
	}
}

func TestUtilizationReport(t *testing.T) {
	rep := sampleProfile().UtilizationReport()
	for _, want := range []string{
		"2 cells, skew 6, lead 4, 100 cycles",
		"cell0.X", "cell1.Y", "cell0.Adr",
		"peak data-queue occupancy 30 at cell1.Y",
		"host input backpressure (queue-full): X 3 cycles, Y 0 cycles",
		"in.add%",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestUtilizationReportGolden pins the exact report text — including
// the host-stall and peak-queue ("MaxQueueAt") lines — so format
// regressions show up as a diff, not as a silently reshaped table.
func TestUtilizationReportGolden(t *testing.T) {
	const golden = `run: 2 cells, skew 6, lead 4, 100 cycles

per-cell utilization and stall attribution (cycles):
cell   active   busy%    add%    mul% | in.add% in.mul% |  starved  bubble  skew-in   drain
   0       90   88.9%   77.8%   66.7% |   85.0%   75.0% |        6       4        0       6
   1       90   91.1%   77.8%   66.7% |   85.0%   75.0% |        8       0        6       0
 all      180   90.0%   77.8%   66.7% |   85.0%   75.0% |       14       4        6       6
(add%/mul% over the active window; in.add%/in.mul% over the innermost loop — §7's
 "all the arithmetic units are fully utilized in the innermost loop" is in.≈100%)

queue high-water marks and occupancy:
queue          peak     mean      p50      p95   pushes
cell0.X          12     0.70        1        2       90
cell1.Y          30     1.40        2        2       80
cell0.Adr        64     1.50        2        2      200
peak data-queue occupancy 30 at cell1.Y
host input backpressure (queue-full): X 3 cycles, Y 0 cycles
`
	got := sampleProfile().UtilizationReport()
	if got != golden {
		gl, ol := strings.Split(golden, "\n"), strings.Split(got, "\n")
		for i := 0; i < len(gl) || i < len(ol); i++ {
			var w, g string
			if i < len(gl) {
				w = gl[i]
			}
			if i < len(ol) {
				g = ol[i]
			}
			if w != g {
				t.Errorf("line %d:\n want %q\n  got %q", i+1, w, g)
			}
		}
	}
}

func TestPhaseReport(t *testing.T) {
	if PhaseReport(nil) != "" {
		t.Error("PhaseReport(nil) should be empty")
	}
	rep := PhaseReport([]PhaseStat{
		{Name: "parse", Seconds: 0.001, Size: 30},
		{Name: "cellgen", Seconds: 0.002, Size: 200, Note: "2 loops pipelined"},
	})
	for _, want := range []string{"parse", "cellgen", "2 loops pipelined", "total"} {
		if !strings.Contains(rep, want) {
			t.Errorf("phase report missing %q:\n%s", want, rep)
		}
	}
}
