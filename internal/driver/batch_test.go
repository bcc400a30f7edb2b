package driver

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"warp/internal/sim"
	"warp/internal/workloads"
)

// TestRunBatchWalksSimTogether: on the simulator, as on the fast backend,
// RunBatch walks its problems together — one Stats for the walk, its
// Decision recording the width — and every problem's outputs and Stats
// are RunWith's.  Profiling adds only shared counters, so a profiled
// batch walks together too; a cycle recorder sees one run's events, so
// with one attached every problem walks alone.
func TestRunBatchWalksSimTogether(t *testing.T) {
	c, err := Compile(workloads.Matmul(8), Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	inputs := make([]map[string][]float64, n)
	for l := range inputs {
		inputs[l] = zeroIn(c)
		for _, v := range inputs[l] {
			for i := range v {
				v[i] = float64((i+7*l)%13) / 4
			}
		}
	}
	// timeless drops what a wall clock decides.
	timeless := func(st *sim.Stats) sim.Stats {
		s := *st
		s.Decision = nil
		return s
	}
	for _, tc := range []struct {
		name  string
		o     RunOptions
		batch int // Decision.Batch: the walk's width, 0 alone
	}{
		{"plain", RunOptions{Backend: BackendSim}, n},
		{"profiled", RunOptions{Backend: BackendSim, Profile: true}, n},
		{"recorded", RunOptions{Backend: BackendSim, Recorder: &hashRec{h: sha256.New()}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outs, stats, err := RunBatch(c, inputs, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			for l, in := range inputs {
				want, ws, err := RunWith(c, in, tc.o)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(outs[l], want) {
					t.Errorf("problem %d: outputs differ from its run alone", l)
				}
				if got := timeless(stats[l]); !reflect.DeepEqual(got, timeless(ws)) {
					t.Errorf("problem %d: stats %+v, alone %+v", l, got, timeless(ws))
				}
				if shared := stats[l] == stats[0]; l > 0 && shared != (tc.batch > 0) {
					t.Errorf("problem %d shares problem 0's stats: %v, want %v", l, shared, tc.batch > 0)
				}
				if d := stats[l].Decision; d.Backend != BackendSim || d.Batch != tc.batch {
					t.Errorf("problem %d: decision %+v, want batch %d on sim", l, d, tc.batch)
				}
			}
		})
	}
}
