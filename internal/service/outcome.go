package service

import (
	"fmt"

	"warp"
	"warp/internal/obs"
)

// runOutcome is what one run request or partitioned (fabric) job came
// to: the one value its RunResponse, span annotations, flight-record
// fields and Metrics observation derive from.
type runOutcome struct {
	result   string  // metrics label: ok|error|timeout|rejected
	seconds  float64 // submission to completion, queue wait included
	outputs  map[string][]float64
	stats    RunStatsJSON // a fabric job reports its makespan as Cycles
	cycles   int64        // for the record: a fabric job's aggregate
	summary  obs.Summary  // single-array runs only
	decision *warp.Decision
	source   *warp.SourceProfile
	// fabric is non-nil exactly for a partitioned request (zero until
	// the job has planned its tiles) and carries its tile counters.
	fabric *warp.FabricStats
}

// arrayOutcome is the outcome of a single-array run; rs is nil when the
// run failed.
func arrayOutcome(out map[string][]float64, rs *warp.RunStats) *runOutcome {
	if rs == nil {
		return &runOutcome{}
	}
	sum := rs.Profile.Summarize()
	return &runOutcome{
		outputs:  out,
		stats:    rs.RunSummary,
		cycles:   rs.Cycles,
		summary:  sum,
		decision: rs.Decision,
		source:   rs.Source,
	}
}

// fabricOutcome is the outcome of a partitioned job; fs is nil when the
// job died before planning its tiles, and partial when it died later.
func fabricOutcome(out map[string][]float64, fs *warp.FabricStats) *runOutcome {
	if fs == nil {
		fs = &warp.FabricStats{}
	}
	return &runOutcome{
		outputs: out,
		stats: RunStatsJSON{
			Cycles:         fs.MakespanCycles,
			Backend:        fs.Backend,
			MaxQueue:       fs.PeakQueue,
			MaxQueueAt:     fs.PeakQueueAt,
			AddUtilization: fs.AddUtil,
			MulUtilization: fs.MulUtil,
		},
		cycles:   fs.AggregateCycles,
		decision: fs.Decision,
		source:   fs.Source,
		fabric:   fs,
	}
}

// annotate stamps the outcome onto the run (or fabric) span: backend,
// decision reason and measured wall, profile summary — or the error.
func (o *runOutcome) annotate(sp *obs.Span, err error) {
	if o.fabric != nil && o.fabric.Tiles > 0 {
		sp.Annotate("tiles", fmt.Sprint(o.fabric.Tiles))
	}
	if err != nil {
		sp.Annotate("error", err.Error())
		return
	}
	sp.Annotate("backend", o.stats.Backend)
	if d := o.decision; d != nil {
		sp.Annotate("decision", d.Reason)
		sp.Annotate("actual_wall_ns", fmt.Sprint(d.ActualWallNS))
	}
	if o.fabric == nil {
		sp.AttachSummary(o.summary)
	}
}

// response is the wire form of a completed outcome of request rq.
func (o *runOutcome) response(rq *request) *RunResponse {
	resp := &RunResponse{
		Program:  rq.Program,
		Cached:   rq.Cached,
		Outputs:  o.outputs,
		Stats:    o.stats,
		Request:  rq.ID,
		Decision: o.decision,
	}
	if f := o.fabric; f != nil {
		resp.Fabric = &FabricJSON{
			Tiles:           f.Tiles,
			Arrays:          f.Arrays,
			Dispatched:      f.Dispatched,
			Retried:         f.Retried,
			Failed:          f.Failed,
			AggregateCycles: f.AggregateCycles,
			MakespanCycles:  f.MakespanCycles,
			Speedup:         f.Speedup,
			StagedWords:     f.StagedWords,
		}
	}
	return resp
}
