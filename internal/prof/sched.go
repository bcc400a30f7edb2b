// Package prof is the warp profiling subsystem.  It has two halves:
//
//   - Execution profiling: the compiler emits a debug map (µinstruction
//     address → W2 source line / loop-nest path, see debug.go) carried
//     alongside the microcode, and the cycle-accurate simulator records
//     exact per-µPC busy/starve/bubble counters per cell.  source.go
//     joins the two into source-line hot-spot profiles with stall
//     breakdowns, exported as a text report, folded flame-graph stacks
//     and pprof-compatible protobuf (pprof.go).
//
//   - Compiler introspection: this file.  Counters and timings from
//     inside the modulo scheduler and the skew search (candidate
//     placements, backtracks, II bumps, search-space sizes) so the
//     superlinear compile phases can be identified from data rather
//     than guessed.
//
// Both halves are exact, not sampled: the simulator attributes every
// active cycle to exactly one µPC, and the scheduler counts every
// placement it tries.
package prof

import (
	"fmt"
	"strings"
)

// LoopSched records the modulo scheduler's search for one source loop:
// how hard the II search worked and why it accepted or rejected the
// pipelined schedule.
type LoopSched struct {
	Loop  string `json:"loop"`  // source loop variable
	Line  int    `json:"line"`  // source line of the for statement
	Trips int64  `json:"trips"` // iteration count

	Pipelined bool `json:"pipelined"`
	// Reason is why the loop was not pipelined.  When no II was tried it
	// names the lower bound that left none below the list schedule; after
	// a search it counts how the tried IIs failed (eviction budget,
	// register pressure, too few trips).
	Reason string `json:"reason,omitempty"`

	// MII is the first II worth trying: the largest of the search's sound
	// lower bounds — units (one operation per unit per cycle), trip count
	// (stages ≤ trips), recurrences (no dependence cycle of positive
	// weight), and recurrences with capacity-1 units (two operations of
	// one unit never a multiple of II apart).  Zero when the loop did not
	// qualify for the search.
	MII         int   `json:"mii,omitempty"`
	II          int   `json:"ii,omitempty"`           // achieved initiation interval (0 = none)
	Attempts    int   `json:"attempts,omitempty"`     // II values tried (tryModulo invocations)
	Placements  int64 `json:"placements,omitempty"`   // candidate op placements evaluated
	Evictions   int64 `json:"evictions,omitempty"`    // ops unscheduled to make room (backtracks)
	EmitRejects int   `json:"emit_rejects,omitempty"` // schedules rejected at emission (register pressure, too few trips)
	SearchNS    int64 `json:"search_ns,omitempty"`    // wall time of the whole search
}

// SkewSearch records one channel's skew computation: which method ran
// and how much work it did.
type SkewSearch struct {
	Channel string `json:"channel"`          // e.g. "cell0->cell1"
	Method  string `json:"method"`           // "structural": gallop and bisect over loop-tree evaluations (skew.Analysis)
	Ops     int64  `json:"ops,omitempty"`    // points evaluated: sends looked at, over all probes — set by the loop structure, not the trip counts
	Pairs   int64  `json:"pairs,omitempty"`  // statement pairs analyzed (the paper's pairwise bound; zero on the compile path)
	Pruned  int64  `json:"pruned,omitempty"` // pairs skipped by its coarse interval prefilter
	Skew    int64  `json:"skew"`
	NS      int64  `json:"ns,omitempty"`
}

// SchedProfile aggregates compiler-introspection counters for one
// compilation, attached to the driver's compile-phase spans.
type SchedProfile struct {
	Loops []LoopSched  `json:"loops,omitempty"`
	Skews []SkewSearch `json:"skews,omitempty"`
}

// SchedTotals is the roll-up of a SchedProfile, the shape exported as
// warpd_sched_* Prometheus counters.
type SchedTotals struct {
	Loops       int   `json:"loops"`
	Pipelined   int   `json:"pipelined"`
	Attempts    int   `json:"attempts"`
	Placements  int64 `json:"placements"`
	Evictions   int64 `json:"evictions"`
	EmitRejects int   `json:"emit_rejects"`
	SearchNS    int64 `json:"search_ns"`
	SkewOps     int64 `json:"skew_ops"`
	SkewPairs   int64 `json:"skew_pairs"`
	SkewPruned  int64 `json:"skew_pruned"`
	SkewNS      int64 `json:"skew_ns"`
}

// Totals rolls the per-loop and per-channel records up into counters.
func (s *SchedProfile) Totals() SchedTotals {
	var t SchedTotals
	if s == nil {
		return t
	}
	for _, l := range s.Loops {
		t.Loops++
		if l.Pipelined {
			t.Pipelined++
		}
		t.Attempts += l.Attempts
		t.Placements += l.Placements
		t.Evictions += l.Evictions
		t.EmitRejects += l.EmitRejects
		t.SearchNS += l.SearchNS
	}
	for _, k := range s.Skews {
		t.SkewOps += k.Ops
		t.SkewPairs += k.Pairs
		t.SkewPruned += k.Pruned
		t.SkewNS += k.NS
	}
	return t
}

// Report renders the scheduler introspection as a human-readable table.
func (s *SchedProfile) Report() string {
	var sb strings.Builder
	t := s.Totals()
	fmt.Fprintf(&sb, "scheduler: %d loops, %d pipelined; %d II attempts, %d placements, %d evictions, %d emit rejects, %.3fms\n",
		t.Loops, t.Pipelined, t.Attempts, t.Placements, t.Evictions, t.EmitRejects, float64(t.SearchNS)/1e6)
	if s == nil {
		return sb.String()
	}
	if t.Pipelined > 0 {
		sb.WriteString("  (MII: the first II tried, the largest of the unit, trip-count and recurrence lower bounds)\n")
	}
	for _, l := range s.Loops {
		if l.Pipelined {
			fmt.Fprintf(&sb, "  loop %s (line %d, %d trips): II %d (MII %d) after %d attempts, %d placements, %d evictions, %d emit rejects, %.3fms\n",
				l.Loop, l.Line, l.Trips, l.II, l.MII, l.Attempts, l.Placements, l.Evictions, l.EmitRejects, float64(l.SearchNS)/1e6)
		} else {
			reason := l.Reason
			if reason == "" {
				reason = "not attempted"
			}
			fmt.Fprintf(&sb, "  loop %s (line %d, %d trips): not pipelined (%s) after %d attempts, %d placements\n",
				l.Loop, l.Line, l.Trips, reason, l.Attempts, l.Placements)
		}
	}
	if len(s.Skews) > 0 {
		fmt.Fprintf(&sb, "skew search: %d points evaluated, %.3fms\n", t.SkewOps, float64(t.SkewNS)/1e6)
		for _, k := range s.Skews {
			fmt.Fprintf(&sb, "  %s: skew %d via %s search, %d points evaluated\n", k.Channel, k.Skew, k.Method, k.Ops)
		}
	}
	return sb.String()
}
