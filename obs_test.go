package warp_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"warp"
	"warp/internal/workloads"
)

// obsJobs are the workloads whose cycle counts the observability layer
// must not perturb.  The counts are the pre-instrumentation baselines:
// the simulator is deterministic, so any drift means the tracing hooks
// changed machine behavior instead of just watching it.
var obsJobs = []struct {
	name   string
	src    string
	pipe   bool
	cycles int64
	inputs func() map[string][]float64
}{
	{"polynomial-plain", workloads.Polynomial(10, 100), false, 1322, func() map[string][]float64 {
		return map[string][]float64{"z": make([]float64, 100), "c": make([]float64, 10)}
	}},
	{"polynomial-pipelined", workloads.Polynomial(10, 100), true, 225, func() map[string][]float64 {
		return map[string][]float64{"z": make([]float64, 100), "c": make([]float64, 10)}
	}},
	{"conv1d-pipelined", workloads.Conv1D(9, 512), true, 634, func() map[string][]float64 {
		return map[string][]float64{"x": make([]float64, 512), "w": make([]float64, 9)}
	}},
	{"matmul10", workloads.Matmul(10), true, 719, func() map[string][]float64 {
		return map[string][]float64{"a": make([]float64, 100), "bmat": make([]float64, 100)}
	}},
}

// TestObsNeutral checks that observability is behavior-neutral: cycle
// counts match the pre-obs baselines with tracing off, and attaching a
// full Chrome tracer changes neither the cycle count nor the outputs.
func TestObsNeutral(t *testing.T) {
	for _, j := range obsJobs {
		t.Run(j.name, func(t *testing.T) {
			prog, err := warp.Compile(j.src, warp.Options{Pipeline: j.pipe})
			if err != nil {
				t.Fatal(err)
			}
			out, stats, err := prog.Run(j.inputs())
			if err != nil {
				t.Fatal(err)
			}
			if stats.Cycles != j.cycles {
				t.Errorf("cycles = %d, want %d (baseline)", stats.Cycles, j.cycles)
			}
			if stats.Profile == nil {
				t.Fatal("Run did not attach a profile")
			}

			var buf bytes.Buffer
			tout, tstats, err := prog.RunWith(warp.RunConfig{Trace: &buf}, j.inputs())
			if err != nil {
				t.Fatal(err)
			}
			if tstats.Cycles != stats.Cycles {
				t.Errorf("tracing changed cycles: %d vs %d", tstats.Cycles, stats.Cycles)
			}
			if tstats.MaxQueue != stats.MaxQueue || tstats.MaxQueueAt != stats.MaxQueueAt {
				t.Errorf("tracing changed queue stats: %d@%s vs %d@%s",
					tstats.MaxQueue, tstats.MaxQueueAt, stats.MaxQueue, stats.MaxQueueAt)
			}
			for name, want := range out {
				got := tout[name]
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("tracing changed output %s[%d]: %v vs %v", name, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestObsProfileConsistent cross-checks the always-on profile against
// the run: per-cell cycles are fully attributed (busy + stalls + skew
// lead-in + drain covers every cycle of the run past the IU lead), and
// the derived MaxQueue names a real queue within the hardware bound.
func TestObsProfileConsistent(t *testing.T) {
	prog, err := warp.Compile(workloads.Matmul(10), warp.Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := prog.Run(map[string][]float64{
		"a": make([]float64, 100), "bmat": make([]float64, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := stats.Profile
	if p.Cells != prog.Cells() || p.Cycles != stats.Cycles {
		t.Fatalf("profile geometry %d cells/%d cycles, run %d/%d",
			p.Cells, p.Cycles, prog.Cells(), stats.Cycles)
	}
	for i := range p.Cell {
		c := &p.Cell[i]
		covered := c.SkewLead + c.Active() + c.Drain
		span := p.Cycles - p.Lead
		if covered != span {
			t.Errorf("cell %d: %d cycles attributed, run spans %d after lead", i, covered, span)
		}
		if c.Busy == 0 || c.AddOps == 0 || c.MulOps == 0 {
			t.Errorf("cell %d: no work recorded: %+v", i, c)
		}
		if in := c.Inner(); in == nil || in.Cycles == 0 {
			t.Errorf("cell %d: no innermost-loop attribution", i)
		}
	}
	if stats.MaxQueue <= 0 || stats.MaxQueueAt == "" {
		t.Errorf("MaxQueue not derived: %d at %q", stats.MaxQueue, stats.MaxQueueAt)
	}
	found := false
	for _, q := range p.Queues {
		if q.Name == stats.MaxQueueAt && q.HighWater == stats.MaxQueue {
			found = true
		}
	}
	if !found {
		t.Errorf("MaxQueueAt %q does not match any queue profile", stats.MaxQueueAt)
	}
	if len(p.Phases) == 0 {
		t.Error("no compiler phases attached to the run profile")
	}
}

// The acceptance check on the RunConfig.Trace exporter: the
// file parses as JSON and every event carries the ph, ts, pid and tid
// fields the Perfetto/Chrome trace viewers require.
func TestRunTracedJSON(t *testing.T) {
	prog, err := warp.Compile(workloads.Matmul(10), warp.Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _, err = prog.RunWith(warp.RunConfig{Trace: &buf}, map[string][]float64{
		"a": make([]float64, 100), "bmat": make([]float64, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 1000 {
		t.Fatalf("suspiciously small trace: %d events", len(doc.TraceEvents))
	}
	// The compiler track is the program's phase timeline verbatim: one
	// compile-category slice per phase, at its own start offset, all on
	// the one compiler track.
	want := prog.Phases()
	phases := 0
	for i, raw := range doc.TraceEvents {
		var ev struct {
			Name *string        `json:"name"`
			Cat  string         `json:"cat"`
			Ph   *string        `json:"ph"`
			TS   *float64       `json:"ts"`
			PID  *int           `json:"pid"`
			TID  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("event %d: %v: %s", i, err, raw)
		}
		if ev.Name == nil || ev.Ph == nil || ev.TS == nil || ev.PID == nil || ev.TID == nil {
			t.Fatalf("event %d missing a required field (name/ph/ts/pid/tid): %s", i, raw)
		}
		if ev.Cat != "compile" {
			continue
		}
		if phases >= len(want) {
			t.Fatalf("more compile slices than the program's %d phases: %s", len(want), raw)
		}
		ph := want[phases]
		phases++
		if *ev.Name != ph.Name || *ev.Ph != "X" || *ev.PID != 2 || *ev.TID != 1 || math.Abs(*ev.TS-ph.Start*1e6) > 0.5 {
			t.Errorf("compile slice %s, want %q at ts %.0f on pid 2 tid 1", raw, ph.Name, ph.Start*1e6)
		}
	}
	if phases != len(want) {
		t.Errorf("%d compile slices for %d phases", phases, len(want))
	}

	rep := prog.PhaseReport()
	for _, want := range []string{"parse", "cellgen", "skew", "iugen", "hostgen", "total"} {
		if !strings.Contains(rep, want) {
			t.Errorf("phase report missing %q:\n%s", want, rep)
		}
	}
}
