// Package warp is a reproduction of the W2 optimizing compiler for the
// CMU Warp systolic array, after Gross & Lam, "Compilation for a
// High-performance Systolic Array" (PLDI 1986), together with a
// cycle-accurate simulator of the Warp machine that stands in for the
// 1986 hardware.
//
// The package compiles W2 — a block-structured language with explicit
// asynchronous send/receive communication between neighbouring cells —
// into microcode for the Warp cells, for the interface unit (IU) that
// generates their addresses and loop control signals, and for the host
// I/O processors.  The compiler bridges the semantic gap between the
// asynchronous programmer's model and the fully synchronous hardware
// with the paper's skewed computation model: it computes the minimum
// start-time skew between adjacent cells so that no receive ever
// executes before its matching send, and proves the channel queues
// never overflow.
//
// A minimal session:
//
//	prog, err := warp.Compile(src, warp.Options{})
//	out, stats, err := prog.Run(map[string][]float64{"z": z, "c": c})
//
// See the examples directory for complete programs and internal/skew
// for the timing theory.
package warp

import (
	"context"
	"io"
	"time"

	"warp/internal/driver"
	"warp/internal/obs"
	"warp/internal/prof"
	"warp/internal/sim"
	"warp/internal/skew"
	"warp/internal/verify"
	"warp/internal/w2"
)

// ErrLivelock marks a run aborted by the RunConfig.MaxCycles guard
// (default 2^28 cycles).  Test for it with errors.Is.
var ErrLivelock = sim.ErrLivelock

// Execution backend names for RunConfig.Backend.
const (
	// BackendAuto (also the empty string) picks the fast dataflow
	// executor when the run requests no per-cycle observability (no
	// Trace, no Profile), and the cycle-accurate simulator otherwise.
	BackendAuto = driver.BackendAuto
	// BackendSim forces the cycle-accurate simulator.
	BackendSim = driver.BackendSim
	// BackendFast forces the verified fast executor.
	BackendFast = driver.BackendFast
)

// Options control compilation: optimizer and software-pipelining
// switches and the array-size override.
type Options = driver.Options

// Program is a compiled W2 module.
//
// A Program is immutable after Compile: Run and its variants build
// fresh machine state per call and only read the compiled microcode, so
// a single Program is safe for concurrent Run/RunWith calls
// from many goroutines.
type Program struct {
	c           *driver.Compiled
	compileTime time.Duration
}

// Compile compiles W2 source text through the full pipeline: parsing,
// semantic analysis, flowgraph construction, local and global flow
// analysis, communication-cycle checking, cell code generation,
// minimum-skew and queue-occupancy analysis, IU code generation, host
// I/O program generation and, last, the static microcode verifier: a
// program the verifier cannot prove safe is refused with a
// *verify.Error.
func Compile(src string, opts Options) (*Program, error) {
	start := time.Now()
	c, err := driver.Compile(src, opts)
	if err != nil {
		return nil, err
	}
	return &Program{c: c, compileTime: time.Since(start)}, nil
}

// RunStats reports a run: a view of the executor's record (the profile,
// the decision audit) with its scalar summary and, when profiled, its
// source-line profile.
type RunStats struct {
	RunSummary
	// Profile is the full run profile: per-cell stall attribution and
	// per-loop-depth utilization, per-queue occupancy, host
	// backpressure, and the compiler's per-phase timing.  Its
	// UtilizationReport method renders the §7-style per-cell table.
	Profile *obs.Profile
	// Source is the source-line cycle profile — every busy and stall
	// cycle of every cell attributed exactly to a W2 source line and
	// loop-nest path.  Only filled when RunConfig.Profile was set; see
	// SourceProfile for the export formats (text report, folded flame
	// stacks, pprof protobuf).
	Source *SourceProfile
	// Decision is the backend decision audit: why this backend ran, the
	// run's exact cycle and operation counts, and the wall time actually
	// spent.  Always present.
	Decision *Decision
}

// RunSummary is a run's scalar summary, and its wire form (warpd's
// "stats" object).
type RunSummary struct {
	// Cycles is the total machine time until the last cell finished.
	Cycles int64 `json:"cycles"`
	// Backend names the executor that produced this run: "sim" for the
	// cycle-accurate simulator, "fast" for the verified dataflow
	// executor.  Both report identical Cycles and outputs for the same
	// program and inputs; the fast backend's count comes from the
	// verifier's closed-form model rather than stepping.
	Backend string `json:"backend,omitempty"`
	// MaxQueue is the peak data-queue occupancy observed, derived from
	// the per-queue high-water marks in Profile.Queues.
	MaxQueue int `json:"max_queue"`
	// MaxQueueAt names the queue (channel and cell boundary) that
	// reached MaxQueue, e.g. "cell1.X".
	MaxQueueAt string `json:"max_queue_at,omitempty"`
	// AddUtilization and MulUtilization are the fractions of
	// cell-active cycles in which the respective FPU issued an
	// operation, summed over all cells — the quantity behind the
	// paper's "all the arithmetic units are fully utilized in the
	// innermost loop" (§7).  They are the profile's (obs.Summary's
	// AddUtil and MulUtil).
	AddUtilization float64 `json:"add_utilization"`
	MulUtilization float64 `json:"mul_utilization"`
}

// Decision is the backend decision audit record attached to every run:
// the chosen backend, the reason, the closed-form cycle count (equal to
// the executed one) and dynamic operation count, and the actual wall
// time observed.
type Decision = obs.Decision

// ProgressUpdate is one coarse snapshot of a running execution; see
// RunConfig.Progress.
type ProgressUpdate = obs.ProgressUpdate

// ProgressFunc receives ProgressUpdates from a running execution.
type ProgressFunc = obs.ProgressFunc

// SourceProfile is a source-line hot-spot profile of a run: exact
// per-line busy/starved/bubble cycle totals plus folded flame-graph
// stacks.  Render it with Report, WriteFolded or WritePprof (the
// latter is viewable with `go tool pprof`).
type SourceProfile = prof.SourceProfile

// SchedProfile is the compiler-introspection record: per-loop modulo
// scheduling counters (II search attempts, candidate placements,
// evictions) and per-channel skew search-space sizes.
type SchedProfile = prof.SchedProfile

// DebugMap is the compiler-emitted mapping from µinstruction addresses
// back to W2 source lines and loop-nest paths.
type DebugMap = prof.DebugMap

// RunConfig controls one execution of a compiled program.  The zero
// value is Run's behaviour: run to completion with the default livelock
// guard.
type RunConfig struct {
	// Context, when non-nil, aborts the simulation once it is cancelled
	// — the run loop polls it every few thousand cycles, so a deadline
	// or client disconnect stops a runaway simulation promptly instead
	// of waiting out the MaxCycles guard.  The returned error wraps
	// ctx.Err().
	Context context.Context
	// MaxCycles overrides the runaway-simulation guard (0 keeps the
	// default of 2^28 cycles).  On overrun the error wraps ErrLivelock.
	MaxCycles int64
	// Profile enables exact per-µPC cycle attribution in the simulator
	// and fills RunStats.Source with the source-line profile (and, for
	// RunPartitioned, FabricStats.Source with the per-tile aggregate).
	// The attribution is exact, not sampled: per cell, the per-line
	// totals sum to busy+starved+bubble.  Off by default; when off the
	// simulator's only extra cost is a nil check per cycle per cell.
	Profile bool
	// Backend selects the execution backend: BackendAuto (or "") picks
	// the fast dataflow executor when no per-cycle observability is
	// requested and the simulator otherwise; BackendSim forces
	// cycle-accurate simulation; BackendFast forces the fast executor.
	Backend string
	// Progress, when non-nil, receives coarse position updates while
	// the run executes — cycles retired (with the modeled total for a
	// percent display) for single runs, tile completions for
	// RunPartitioned — plus a terminal update.  The callback runs on
	// the executor's goroutine at a bounded stride and must not block;
	// nil disables progress reporting at zero cost.
	Progress ProgressFunc
	// Trace, when non-nil, receives a Chrome trace-event JSON document
	// of the run (one track per cell, functional unit and queue; load
	// it in Perfetto or chrome://tracing), with the compiler's phase
	// timings on a separate "compiler" track.  Tracing observes every
	// cycle, so BackendAuto picks the simulator.
	Trace io.Writer

	// The remaining fields configure RunPartitioned only; the
	// single-array Run variants ignore them.

	// Arrays is how many simulated array instances RunPartitioned farms
	// tiles across concurrently (minimum 1).
	Arrays int
	// TileDeadline bounds each tile attempt; a tile that overruns it is
	// retried like a livelock (0 = no per-tile deadline).
	TileDeadline time.Duration
	// TileRetries is how many additional attempts a retryable tile
	// failure (livelock, tile deadline) gets before RunPartitioned
	// fails the whole job with a *TileError.
	TileRetries int
}

// Run executes the compiled program on the simulated Warp machine with
// the given input arrays (keyed by "in" parameter name) and returns the
// output arrays (keyed by "out" parameter name).
func (p *Program) Run(inputs map[string][]float64) (map[string][]float64, *RunStats, error) {
	return p.RunWith(RunConfig{}, inputs)
}

// RunWith runs under full run-time configuration: cancellation
// context, livelock guard, backend choice, profiling, progress and
// Chrome tracing.
func (p *Program) RunWith(cfg RunConfig, inputs map[string][]float64) (map[string][]float64, *RunStats, error) {
	var rec obs.Recorder
	var tracer *obs.ChromeTracer
	if cfg.Trace != nil {
		tracer = obs.NewChromeTracer(cfg.Trace)
		for _, ph := range p.c.Phases {
			tracer.Phase(ph)
		}
		rec = tracer
	}
	outs, rss, err := p.runBatch(cfg, rec, []map[string][]float64{inputs})
	if tracer != nil {
		if cerr := tracer.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return outs[0], &rss[0], nil
}

// runBatch runs the input sets under cfg's run fields (driver.RunBatch)
// and views each problem's record as RunStats.
func (p *Program) runBatch(cfg RunConfig, rec obs.Recorder, inputs []map[string][]float64) ([]map[string][]float64, []RunStats, error) {
	outs, stats, err := driver.RunBatch(p.c, inputs, driver.RunOptions{Ctx: cfg.Context, Recorder: rec,
		MaxCycles: cfg.MaxCycles, Profile: cfg.Profile, Backend: cfg.Backend, Progress: cfg.Progress})
	if err != nil {
		return nil, nil, err
	}
	rss := make([]RunStats, len(stats))
	for i, st := range stats {
		sum := st.Obs.Summarize()
		rss[i] = RunStats{
			RunSummary: RunSummary{Cycles: st.Cycles, Backend: st.Backend, MaxQueue: st.MaxQueue, MaxQueueAt: st.MaxQueueAt,
				AddUtilization: sum.AddUtil, MulUtilization: sum.MulUtil},
			Profile:  st.Obs,
			Decision: st.Decision,
		}
		if cfg.Profile {
			rss[i].Source = prof.BuildSource(p.c.Debug, st.Obs.PC, st.Cycles)
		}
	}
	return outs, rss, nil
}

// DebugMap returns the compiler's µPC → source mapping for this
// program.
func (p *Program) DebugMap() *DebugMap { return p.c.Debug }

// Sched returns the compiler-introspection record of this program's
// compilation: modulo-scheduling and skew-search counters.
func (p *Program) Sched() *SchedProfile { return p.c.Sched }

// SchedReport renders the scheduler-introspection record as text.
func (p *Program) SchedReport() string { return p.c.Sched.Report() }

// Metrics are the per-program compiler metrics of the paper's
// Table 7-1, plus the skew analysis results.
type Metrics struct {
	Name        string
	W2Lines     int
	CellInstrs  int // cell µcode length (static microinstructions)
	IUInstrs    int // IU µcode length
	CompileTime time.Duration

	Cells      int
	Skew       int64 // applied inter-cell skew in cycles
	CellCycles int64 // one cell's total execution time
	QueueOccX  int64 // proven peak occupancy, channel X
	QueueOccY  int64
	IUAddrRegs int
	IUTable    int // pre-stored table entries
	OptCount   int // local-optimizer transformations applied
	Pipelined  int // loops software pipelining transformed
	// PipelineBackoff: pipelining was requested but rolled back because
	// the IU could not feed the overlapped schedule.  BackoffReason is
	// the error that forced the rollback.
	PipelineBackoff bool
	BackoffReason   string
}

// Metrics returns the compiled program's metrics.
func (p *Program) Metrics() Metrics {
	return Metrics{
		Name:            p.c.Module.Name,
		W2Lines:         p.c.W2Lines,
		CellInstrs:      p.c.Cell.NumInstrs(),
		IUInstrs:        p.c.IU.NumInstrs(),
		CompileTime:     p.compileTime,
		Cells:           p.c.Cells,
		Skew:            p.c.Skew,
		CellCycles:      p.c.Cell.Cycles(),
		QueueOccX:       p.c.QueueOcc[w2.ChanX],
		QueueOccY:       p.c.QueueOcc[w2.ChanY],
		IUAddrRegs:      p.c.IUGen.AddrRegs,
		IUTable:         p.c.IUGen.TableEntries,
		OptCount:        p.c.OptStats.Total(),
		Pipelined:       p.c.CellGen.PipelinedLoops,
		PipelineBackoff: p.c.PipelineBackoff,
		BackoffReason:   p.c.BackoffReason,
	}
}

// ParamInfo describes one module parameter.
type ParamInfo struct {
	Name string
	Out  bool
	Size int // number of scalar elements
}

// Params returns the module's parameters in declaration order.
func (p *Program) Params() []ParamInfo {
	var out []ParamInfo
	for _, sym := range p.c.Info.HostSyms {
		out = append(out, ParamInfo{Name: sym.Name, Out: sym.Out, Size: sym.Type.Size()})
	}
	return out
}

// Phases returns the compiler's per-phase wall-clock timing and size
// records, in execution order.  A compile that rolled software
// pipelining back has a "pipeline-backoff" entry after "commgraph": it
// spans the failed pipelined attempt, and its note is the reason.
func (p *Program) Phases() []obs.PhaseStat { return p.c.Phases }

// PhaseReport renders the per-phase timing table as text.
func (p *Program) PhaseReport() string { return obs.PhaseReport(p.c.Phases) }

// CellListing renders the generated cell microcode.
func (p *Program) CellListing() string { return p.c.Cell.Listing() }

// IUListing renders the generated IU microcode.
func (p *Program) IUListing() string { return p.c.IU.Listing() }

// Verified returns the static verifier's report: the proven peak queue
// occupancies and the number of propositions discharged.
func (p *Program) Verified() *verify.Report { return p.c.Verified }

// Fingerprint renders every compile output a consumer can observe in a
// canonical order (driver.Fingerprint, the determinism contract's byte
// string): programs with equal fingerprints are interchangeable.
func (p *Program) Fingerprint() string { return driver.Fingerprint(p.c) }

// Skew returns the applied inter-cell skew in cycles.
func (p *Program) Skew() int64 { return p.c.Skew }

// Cells returns the array size.
func (p *Program) Cells() int { return p.c.Cells }

// ChannelTiming returns the timed I/O program of one channel, the
// input to the skew analysis (see internal/skew).
func (p *Program) ChannelTiming(ch rune) *skew.Prog {
	switch ch {
	case 'X', 'x':
		return p.c.Timing[w2.ChanX]
	case 'Y', 'y':
		return p.c.Timing[w2.ChanY]
	}
	return nil
}
