package driver

import (
	"testing"

	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/workloads"
)

// zeroIn builds zero input arrays of the declared sizes for a compiled
// program (inputs never affect timing — the machine is statically
// scheduled).
func zeroIn(c *Compiled) map[string][]float64 {
	in := map[string][]float64{}
	for _, sym := range c.Info.HostSyms {
		if !sym.Out {
			in[sym.Name] = make([]float64, sym.Type.Size())
		}
	}
	return in
}

var decisionCases = []struct {
	name string
	src  string
	opts Options
}{
	{"polynomial", workloads.Polynomial(10, 100), Options{Verify: true}},
	{"conv1d", workloads.Conv1D(9, 64), Options{Verify: true}},
	{"matmul-pipelined", workloads.Matmul(8), Options{Verify: true, Pipeline: true}},
	{"binop-unverified", workloads.Binop(16, 12), Options{}},
}

// TestDecisionPredictedCyclesExact pins the decision audit's core
// promise: on deterministic workloads the predicted cycle input equals
// the executed cycle count exactly, for both backends.
func TestDecisionPredictedCyclesExact(t *testing.T) {
	for _, tc := range decisionCases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(tc.src, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, backend := range []string{BackendAuto, BackendSim, BackendFast} {
				if backend == BackendFast && c.Verified == nil {
					continue
				}
				_, stats, err := RunWith(c, zeroIn(c), RunOptions{Backend: backend})
				if err != nil {
					t.Fatalf("backend %s: %v", backend, err)
				}
				d := stats.Decision
				if d == nil {
					t.Fatalf("backend %s: run carries no decision", backend)
				}
				if d.PredictedCycles != stats.Cycles {
					t.Errorf("backend %s: predicted %d cycles, simulator counted %d",
						backend, d.PredictedCycles, stats.Cycles)
				}
				if d.Backend != stats.Backend {
					t.Errorf("decision backend %q != stats backend %q", d.Backend, stats.Backend)
				}
				if d.ActualWallNS <= 0 {
					t.Errorf("backend %s: actual wall not stamped", backend)
				}
				if d.Cells != c.Cells {
					t.Errorf("decision cells = %d, want %d", d.Cells, c.Cells)
				}
			}
		})
	}
}

// TestDecisionPredictedOpsClosedForm: the audit record's trace length is
// a closed form over the trip counts (mcode.CountCell), equal to the
// length of the plan the trace compiler would build, so recording what
// the fast backend would have cost never builds one.  A simulator-side
// run — explicit, profiled or traced — leaves the plan cache empty.
func TestDecisionPredictedOpsClosedForm(t *testing.T) {
	for _, tc := range decisionCases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(tc.src, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []RunOptions{
				{Backend: BackendSim},
				{Profile: true},
				{Recorder: &countingRec{}},
			} {
				_, stats, err := RunWith(c, zeroIn(c), o)
				if err != nil {
					t.Fatal(err)
				}
				if c.fastPlan != nil || c.fastErr != nil {
					t.Fatalf("a %q run built a fast plan", stats.Decision.Reason)
				}
				if verified, predicted := c.Verified != nil, stats.Decision.PredictedOps != 0; verified != predicted {
					t.Errorf("%q run: verified=%v but PredictedOps=%d", stats.Decision.Reason, verified, stats.Decision.PredictedOps)
				}
			}
			plan, err := c.FastPlan()
			if c.Verified == nil {
				// A plan is built only from the verifier's report.
				if err == nil {
					t.Fatal("an unverified program built a fast plan")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if counts, _ := mcode.CountCell(c.Cell); counts.Ops != int64(plan.Ops()) {
				t.Errorf("closed-form trace length %d, plan has %d ops", counts.Ops, plan.Ops())
			}
			_, d, err := chooseBackend(c, RunOptions{Backend: BackendSim})
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(plan.Ops()) * int64(c.Cells); d.PredictedOps != want {
				t.Errorf("PredictedOps = %d, want %d (plan ops x cells)", d.PredictedOps, want)
			}
		})
	}
}

// TestDecisionReasons pins the reason strings for every selection path.
func TestDecisionReasons(t *testing.T) {
	verified, err := Compile(workloads.Polynomial(10, 50), Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	unverified, err := Compile(workloads.Polynomial(10, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		c           *Compiled
		o           RunOptions
		wantBackend string
		wantReason  string
		wantFast    bool // the fast side's operation count must be present
	}{
		{"auto-verified", verified, RunOptions{}, BackendFast, "auto-verified", true},
		{"auto-unverified", unverified, RunOptions{}, BackendSim, "unverified", false},
		{"auto-profile", verified, RunOptions{Profile: true}, BackendSim, "profile-requested", true},
		{"auto-recorder", verified, RunOptions{Recorder: &countingRec{}}, BackendSim, "cycle-recorder", true},
		{"explicit-sim", verified, RunOptions{Backend: BackendSim}, BackendSim, "explicit-sim", true},
		{"explicit-sim-unverified", unverified, RunOptions{Backend: BackendSim}, BackendSim, "explicit-sim", false},
		{"explicit-fast", verified, RunOptions{Backend: BackendFast}, BackendFast, "explicit-fast", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			backend, d, err := chooseBackend(tc.c, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			if backend != tc.wantBackend {
				t.Errorf("backend = %q, want %q", backend, tc.wantBackend)
			}
			if d.Reason != tc.wantReason {
				t.Errorf("reason = %q, want %q", d.Reason, tc.wantReason)
			}
			if tc.wantFast && d.PredictedOps == 0 {
				t.Error("fast-side operation count missing")
			}
			if !tc.wantFast && d.PredictedOps != 0 {
				t.Errorf("unexpected fast-side operation count: ops=%d", d.PredictedOps)
			}
		})
	}
	if _, _, err := chooseBackend(unverified, RunOptions{Backend: BackendFast}); err == nil {
		t.Error("fast-on-unverified must still fail")
	}
	if _, _, err := chooseBackend(verified, RunOptions{Backend: "warp9"}); err == nil {
		t.Error("unknown backend must still fail")
	}
}

// countingRec is a minimal cycle-observing recorder.
type countingRec struct {
	n int64
}

func (r *countingRec) RunStart(int, int64, int64)          {}
func (r *countingRec) RunEnd(int64)                        { r.n++ }
func (r *countingRec) CellStart(int64, int)                {}
func (r *countingRec) CellFinish(int64, int)               {}
func (r *countingRec) Issue(int64, int, obs.Unit)          { r.n++ }
func (r *countingRec) MemRef(int64, int, int, int64, bool) {}
func (r *countingRec) QueuePush(int64, int, obs.Queue, int) {
}
func (r *countingRec) QueuePop(int64, int, obs.Queue, int) {}
func (r *countingRec) Stall(int64, int, obs.Stall)         {}

// TestProgressUpdatesMonotone drives both backends with a progress hook
// and checks the positions are monotone, bounded by the modeled total,
// and end with a terminal update at exactly the final cycle count.
func TestProgressUpdatesMonotone(t *testing.T) {
	// Large enough that the 4096-cycle stride fires several times.
	c, err := Compile(workloads.Conv1D(9, 512), Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{BackendSim, BackendFast} {
		var ups []obs.ProgressUpdate
		_, stats, err := RunWith(c, zeroIn(c), RunOptions{
			Backend:  backend,
			Progress: func(u obs.ProgressUpdate) { ups = append(ups, u) },
		})
		if err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		if len(ups) < 2 {
			t.Fatalf("backend %s: want several updates, got %d", backend, len(ups))
		}
		last := ups[len(ups)-1]
		if !last.Done || last.Cycles != stats.Cycles {
			t.Errorf("backend %s: terminal update = %+v, want Done at cycle %d", backend, last, stats.Cycles)
		}
		var prev int64
		for i, u := range ups {
			if u.Cycles < prev {
				t.Errorf("backend %s: update %d went backwards (%d after %d)", backend, i, u.Cycles, prev)
			}
			prev = u.Cycles
			if u.TotalCycles != stats.Decision.PredictedCycles {
				t.Errorf("backend %s: update %d total = %d, want %d", backend, i, u.TotalCycles, stats.Decision.PredictedCycles)
			}
			if u.Cycles > u.TotalCycles {
				t.Errorf("backend %s: update %d position %d exceeds total %d", backend, i, u.Cycles, u.TotalCycles)
			}
		}
	}
}
