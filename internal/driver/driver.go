// Package driver wires the compiler phases together following the
// structure of the paper's Figure 6-1: flow analysis builds the central
// flowgraph data structure; the computation decomposition partitions it
// between the Warp array, the IU and the host; and the three code
// generators run in order — array first (it must deliver the
// computation bandwidth), then the IU under the array's timing
// constraints, then the host.
package driver

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"warp/internal/cellgen"
	"warp/internal/commgraph"
	"warp/internal/fastexec"
	"warp/internal/hostgen"
	"warp/internal/ir"
	"warp/internal/iugen"
	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/opt"
	"warp/internal/prof"
	"warp/internal/sim"
	"warp/internal/skew"
	"warp/internal/verify"
	"warp/internal/w2"
)

// Options control compilation.
type Options struct {
	// NoOptimize disables the local optimizer (CSE, constant folding,
	// height reduction, idempotent-operation removal).
	NoOptimize bool
	// Pipeline enables software pipelining of innermost loops.
	Pipeline bool
	// Cells overrides the array size declared by the cellprogram.
	Cells int
	// Verify is ignored: every compile runs the verifier; kept for
	// benchmark/, see ROADMAP 1(c).
	Verify bool
	// CompileWorkers is ignored; kept for benchmark/, see ROADMAP 1(c).
	CompileWorkers int
}

// Compiled is the full result of compiling one W2 module.
type Compiled struct {
	Module *w2.Module
	Info   *w2.Info
	IR     *ir.Program

	// PipelineBackoff reports that software pipelining was requested
	// but rolled back: the overlapped schedule demanded more address
	// bandwidth than the IU's registers and table provide ("the IU has
	// been designed to deliver the average performance required, but
	// not peak performance", §6.3.2).
	PipelineBackoff bool
	// BackoffReason is the error that forced the rollback.
	BackoffReason string

	// Phases records per-phase wall-clock timing and a size metric for
	// every phase of this compilation, in execution order.  It is the
	// only channel for compile timing: request spans, the Chrome compiler
	// track, /metrics and bench rows are all derived from it.
	Phases []obs.PhaseStat

	OptStats opt.Stats
	Comm     commgraph.Analysis

	Cell    *mcode.CellProgram
	CellGen *cellgen.Result
	IU      *mcode.IUProgram
	IUGen   *iugen.Result
	Host    *hostgen.Program

	// Timing is the per-channel timed I/O program used by the skew
	// analysis.
	Timing map[w2.Channel]*skew.Prog
	// Skew is the start-time delay between adjacent cells.
	Skew int64
	// QueueOcc is the proven per-channel peak queue occupancy.
	QueueOcc map[w2.Channel]int64

	// Verified is the static verifier's report.  The verifier is the
	// compile's last stage, so every compiled program has one: queue
	// safety, skew coverage, register hazards and the IU and host streams
	// are proven before the program is handed out, and a violation fails
	// the compile with a *verify.Error carrying structured diagnostics.
	Verified *verify.Report

	// Debug maps every µinstruction address back to W2 source (line,
	// loop-nest path); built on every compile, it is what the profiler
	// joins with the simulator's per-µPC counters.
	Debug *prof.DebugMap
	// Sched records the modulo scheduler's and skew search's internal
	// counters for compiler introspection.
	Sched *prof.SchedProfile
	// Src is the compiled W2 source text (for profile report rendering).
	Src string

	Cells   int
	W2Lines int

	// The program loaded (sim.Load) by the verify stage, which proves its
	// decode; the count every run reads (the simulator's machine, the fast
	// plan, the decision audit, the batch width) is made on the first.
	loaded *sim.Loaded

	// The fast-execution plan is built from the load on first use and
	// cached: it is derived purely from the immutable microcode above,
	// so one plan is shared by every concurrent run and fabric tile.
	fastOnce sync.Once
	fastPlan *fastexec.Plan
	fastErr  error
}

// load returns the load the verify stage proved.  A Compiled filled by
// hand has none and is loaded anew on each call: only the verify stage,
// which runs before a Compiled is shared, sets the load.
func (c *Compiled) load() *sim.Loaded {
	if c.loaded == nil {
		return sim.Load(c.program())
	}
	return c.loaded
}

// program is the compiled program's fields, as sim.Load reads them.
func (c *Compiled) program() sim.Config {
	return sim.Config{Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host, Skew: c.Skew, Lead: c.IUGen.Prologue + 1}
}

// ModeledCycles returns the closed-form machine-cycle count of one run
// of the compiled program: the IU lead, the skew ramp across the array,
// and one cell's execution time (sim.Loaded.Cycles, the cycles of the
// fast plan's record too).  The machine is statically scheduled,
// so on deterministic workloads it equals the cycle count either backend
// reports; every run's decision audit records it.
func (c *Compiled) ModeledCycles() int64 { return c.load().Cycles() }

// FastPlan returns the compiled program's fast-execution plan, building
// and caching it on first call from the load and the verifier's report.
// The plan is immutable and shared; a plan the build refuses returns the
// build error on every call.
func (c *Compiled) FastPlan() (*fastexec.Plan, error) {
	c.fastOnce.Do(func() { c.fastPlan, c.fastErr = fastexec.CompileLoaded(c.load(), c.Verified) })
	return c.fastPlan, c.fastErr
}

// Compile runs the whole pipeline on W2 source text: the front end of
// stages once, then its back end, which starts at cellgen, the first
// stage that reads Options.Pipeline.  If software pipelining was
// requested and the IU cannot feed the overlapped schedule (its
// sequential table overflows), the back end runs again with the plain
// schedule on the same compilation, whose back-end stages each overwrite
// every field they own.  The rollback is recorded in PipelineBackoff,
// BackoffReason and a "pipeline-backoff" phase in the failed attempt's
// place, spanning it.  The IU code generator refuses such a schedule
// right after cell code generation, before the skew search.
func Compile(src string, opts Options) (*Compiled, error) {
	t0 := time.Now()
	c := &Compiled{Src: src, Phases: make([]obs.PhaseStat, 0, len(stages)+1)}
	if err := c.run(stages[:backEnd], opts, t0); err != nil {
		return nil, err
	}
	front, start := len(c.Phases), time.Now()
	err := c.run(stages[backEnd:], opts, t0)
	// A verification failure is a verdict on the pipelined schedule
	// itself, not an IU capacity limit: report it rather than silently
	// retrying the plain schedule, which would mask the defect.
	var verr *verify.Error
	if err != nil && opts.Pipeline && !errors.As(err, &verr) {
		c.PipelineBackoff, c.BackoffReason = true, err.Error()
		c.Phases = append(c.Phases[:front], obs.PhaseStat{
			Name: "pipeline-backoff", Seconds: time.Since(start).Seconds(), Note: c.BackoffReason, Start: start.Sub(t0).Seconds(),
		})
		opts.Pipeline = false
		if c.run(stages[backEnd:], opts, t0) == nil {
			err = nil
		}
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// A stage is one phase of the compiler: it reads and fills fields of the
// compilation and reports its phase record's size and note.
type stage struct {
	name string
	when func(Options) bool // nil: always runs
	run  func(*Compiled, Options) (size int, note string, err error)
}

// stages is the compiler in the paper's order (Figure 6-1): flow
// analysis and the computation decomposition, then the array, IU and
// host code generators, then the verifier.
var stages = [...]stage{
	{name: "parse", run: func(c *Compiled, _ Options) (int, string, error) {
		c.W2Lines = countLines(c.Src)
		mod, err := w2.Parse(c.Src)
		c.Module = mod
		return c.W2Lines, "", err
	}},
	{name: "sema", run: func(c *Compiled, _ Options) (int, string, error) {
		info, err := w2.Analyze(c.Module)
		if err != nil {
			return 0, "", err
		}
		c.Info = info
		return len(info.HostSyms), "", nil
	}},
	{name: "flowgraph", run: func(c *Compiled, _ Options) (int, string, error) {
		prog, err := ir.Build(c.Info)
		if err != nil {
			return 0, "", err
		}
		c.IR = prog
		return len(prog.Funcs), "", nil
	}},
	{name: "optimize", when: func(o Options) bool { return !o.NoOptimize }, run: func(c *Compiled, _ Options) (int, string, error) {
		c.OptStats = opt.Optimize(c.IR)
		return c.OptStats.Total(), "", nil
	}},
	{name: "commgraph", run: func(c *Compiled, opts Options) (int, string, error) {
		c.Cells = c.Module.Cells.Last - c.Module.Cells.First + 1
		if opts.Cells < 0 {
			return 0, "", fmt.Errorf("invalid cell count %d", opts.Cells)
		}
		if opts.Cells > 0 {
			c.Cells = opts.Cells
		}
		c.Comm = commgraph.Analyze(c.IR)
		if err := c.Comm.Check(c.IR, c.Cells); err != nil {
			return 0, "", err
		}
		if c.Comm.UsesLeftward {
			return 0, "", fmt.Errorf("driver: program sends data leftward; this compiler (like its examples) supports rightward flow only")
		}
		return 0, "", nil
	}},
	{name: "cellgen", run: func(c *Compiled, opts Options) (int, string, error) {
		cg, err := cellgen.Generate(c.IR, cellgen.Options{Pipeline: opts.Pipeline})
		if err != nil {
			return 0, "", err
		}
		c.CellGen, c.Cell, c.Sched = cg, cg.Cell, cg.Sched
		note := ""
		if opts.Pipeline {
			t := c.Sched.Totals()
			note = fmt.Sprintf("%d loops pipelined; %d II attempts, %d placements, %d evictions",
				cg.PipelinedLoops, t.Attempts, t.Placements, t.Evictions)
		}
		return c.Cell.NumInstrs(), note, nil
	}},
	// iugen reads only the cell program, and it is where a pipelined
	// schedule the IU cannot feed — or a program whose cycle count
	// overflows 64 bits — is refused: it runs first, so that a doomed
	// attempt ends before the debug map and the skew search.
	{name: "iugen", run: func(c *Compiled, _ Options) (int, string, error) {
		iu, err := iugen.Generate(c.Cell)
		if err != nil {
			return 0, "", err
		}
		c.IUGen, c.IU = iu, iu.IU
		return c.IU.NumInstrs(), "", nil
	}},
	{name: "skew", run: analyzeSkew},
	{name: "hostgen", run: func(c *Compiled, _ Options) (int, string, error) {
		host, err := hostgen.Generate(c.Cell)
		if err != nil {
			return 0, "", err
		}
		c.Host = host
		var words int64
		for _, s := range host.In {
			words += s.Words()
		}
		for _, s := range host.Out {
			words += s.Words()
		}
		return int(words), "", nil
	}},
	{name: "verify", run: func(c *Compiled, _ Options) (int, string, error) {
		l := sim.Load(c.program())
		rep, err := verify.Verify(l)
		if err != nil {
			return 0, "", err
		}
		c.loaded, c.Verified = l, rep
		return rep.Checked, fmt.Sprintf("%d propositions proven", rep.Checked), nil
	}},
}

// backEnd is the index of cellgen, where the back end of stages starts.
var backEnd = slices.IndexFunc(stages[:], func(s stage) bool { return s.name == "cellgen" })

// run runs seq, a slice of stages, in order, timing each stage and
// appending its phase record, its start measured from t0; it stops at
// the first error.
func (c *Compiled) run(seq []stage, opts Options, t0 time.Time) error {
	for _, s := range seq {
		if s.when != nil && !s.when(opts) {
			continue
		}
		start := time.Now()
		size, note, err := s.run(c, opts)
		if err != nil {
			return err
		}
		c.Phases = append(c.Phases, obs.PhaseStat{
			Name: s.name, Seconds: time.Since(start).Seconds(), Size: size, Note: note, Start: start.Sub(t0).Seconds(),
		})
	}
	return nil
}

// analyzeSkew is the skew stage, the inter-cell scheduling step (§6.2):
// the minimum skew over every channel, then each channel's queue
// occupancy at that skew, then the occupancy of the forwarded Adr and
// Sig queues.  Channels are taken in sorted order, so the introspection
// record in Sched.Skews and the first error reported are deterministic.
// A single-cell array has no inter-cell boundary to synchronize.  The
// debug map is built here, after iugen, so that a pipelined attempt the
// IU refuses ends before it; its time counts to the skew phase.
func analyzeSkew(c *Compiled, _ Options) (int, string, error) {
	c.Debug = prof.BuildDebugMap(c.Module.Name, c.Src, c.Cell)
	streams := skew.CellStreams(c.Cell)
	c.Timing = streams.Timing()
	c.QueueOcc = map[w2.Channel]int64{}
	if c.Cells <= 1 {
		return 0, "", nil
	}
	chans := make([]w2.Channel, 0, len(c.Timing))
	for ch := range c.Timing {
		chans = append(chans, ch)
	}
	sort.Slice(chans, func(i, j int) bool { return fmt.Sprint(chans[i]) < fmt.Sprint(chans[j]) })

	// Addresses and loop signals propagate systolically one cycle per
	// hop, so multi-cell arrays need a skew of at least one cycle.
	c.Skew = 1
	analyses := make([]*skew.Analysis, len(chans))
	for i, ch := range chans {
		chStart := time.Now()
		a, err := skew.NewAnalysis(c.Timing[ch], c.Timing[ch])
		if err != nil {
			return 0, "", fmt.Errorf("driver: channel %s: %w", ch, err)
		}
		s, st, err := a.MinSkewStats()
		if err != nil {
			return 0, "", fmt.Errorf("driver: channel %s: %w", ch, err)
		}
		analyses[i] = a
		c.Sched.Skews = append(c.Sched.Skews, prof.SkewSearch{
			Channel: fmt.Sprint(ch),
			Method:  st.Method,
			Ops:     st.Ops,
			Pairs:   st.Pairs,
			Pruned:  st.Pruned,
			Skew:    s,
			NS:      time.Since(chStart).Nanoseconds(),
		})
		if s > c.Skew {
			c.Skew = s
		}
	}
	for i, ch := range chans {
		occ, err := analyses[i].CheckQueue(c.Skew, mcode.QueueDepth)
		if err != nil {
			return 0, "", fmt.Errorf("driver: channel %s: %w", ch, err)
		}
		c.QueueOcc[ch] = occ
	}
	// The Adr and Sig queues between cells carry what each cell forwards
	// the cycle it consumes it.  The verifier bounds them with the same
	// evaluation, so a decided overflow is refused here, as the source's
	// capacity limit it is; an undecided one is left to the verifier.
	var evals int64
	if _, _, err := skew.CheckForwarded(streams.Mem, c.Skew, mcode.QueueDepth, &evals); err != nil {
		return 0, "", fmt.Errorf("driver: Adr queue: %w", err)
	}
	if _, _, err := skew.CheckForwarded(streams.Bnd, c.Skew, mcode.QueueDepth, &evals); err != nil {
		return 0, "", fmt.Errorf("driver: Sig queue: %w", err)
	}
	note := ""
	if len(chans) > 0 {
		note = fmt.Sprintf("structural search, %d points evaluated", c.Sched.Totals().SkewOps)
	}
	return int(c.Skew), note, nil
}

func countLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// Execution backend names (RunOptions.Backend).
const (
	// BackendAuto picks the fast dataflow executor when the run needs no
	// per-cycle observability, and the cycle-accurate simulator
	// otherwise.
	BackendAuto = "auto"
	// BackendSim forces the cycle-accurate simulator.
	BackendSim = "sim"
	// BackendFast forces the verified fast executor.
	BackendFast = "fast"
)

// RunOptions control one execution of a compiled program.  The zero
// value runs to completion with no instrumentation and the default
// livelock guard.  Ctx, MaxCycles and Progress are the run controls
// (sim.Controls), which RunBatch hands to whichever executor runs.
type RunOptions struct {
	// Ctx, when non-nil, aborts the run once cancelled.
	Ctx context.Context
	// Recorder receives per-cycle instrumentation events.
	Recorder obs.Recorder
	// MaxCycles overrides the livelock guard (0 keeps the default,
	// sim.Controls.Limit).
	MaxCycles int64
	// Profile enables exact per-µPC cycle attribution in the simulator
	// (sim.Config.PCStats); the counters land in Stats.Obs.PC, ready to
	// join with Compiled.Debug.
	Profile bool
	// Backend selects the execution backend: BackendAuto (the default
	// for the empty string), BackendSim or BackendFast.  The selected
	// backend is stamped into Stats.Backend.
	Backend string
	// Progress, when non-nil, receives coarse position updates while
	// the run executes (cycles retired, with the modeled total filled
	// in) plus a terminal update.  nil disables progress reporting at
	// zero hot-path cost.
	Progress obs.ProgressFunc
}

// chooseBackend resolves a RunOptions backend request against the
// compiled program: which engine runs (or an error for an impossible
// explicit request), plus the decision audit record — why that engine,
// and the run's exact cycle and operation counts.  Observability needs
// decide: every compiled program is verified and so has a fast plan, the
// verifier having proven what the plan takes on trust.  The operation
// count is a closed form over the trip counts, so the audit record never
// builds a plan: only a run that may execute on the fast backend pays
// for (and caches) one.
func chooseBackend(c *Compiled, o RunOptions) (string, obs.Decision, error) {
	l := c.load()
	count, _ := l.Count() // iugen refuses a program whose counts overflow
	d := obs.Decision{PredictedCycles: l.Cycles(), PredictedOps: count.Ops * int64(c.Cells), Cells: c.Cells}
	switch b := o.Backend; b {
	case "", BackendAuto:
		// The fast path models cycles instead of observing them, so any
		// run that wants per-cycle instrumentation stays on the
		// simulator.
		switch {
		case o.Profile:
			d.Backend, d.Reason = BackendSim, "profile-requested"
		case obs.Enabled(o.Recorder):
			d.Backend, d.Reason = BackendSim, "cycle-recorder"
		default:
			d.Backend, d.Reason = BackendFast, "auto-verified"
		}
	case BackendSim:
		d.Backend, d.Reason = BackendSim, "explicit-sim"
	case BackendFast:
		if _, err := c.FastPlan(); err != nil {
			return "", obs.Decision{}, fmt.Errorf("backend %q: %w", b, err)
		}
		d.Backend, d.Reason = BackendFast, "explicit-fast"
	default:
		return "", obs.Decision{}, fmt.Errorf("unknown backend %q (want %q, %q or %q)", b, BackendAuto, BackendSim, BackendFast)
	}
	return d.Backend, d, nil
}

// RunWith executes the compiled program under the given run options.
// The compiled program's phase records are copied into the run profile
// so one Stats value carries the whole compile-and-run story.  Compiled
// is never mutated beyond the one-time load and fast-plan caches: every
// run builds fresh machine state, so one Compiled may run from many
// goroutines concurrently.
func RunWith(c *Compiled, inputs map[string][]float64, o RunOptions) (map[string][]float64, *sim.Stats, error) {
	outs, stats, err := RunBatch(c, []map[string][]float64{inputs}, o)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], stats[0], nil
}

// batchStateBytes bounds the execution state of one batched walk (4 MB:
// 32 lanes of a tile kernel stay inside a core's cache, and a program
// with megabyte streams walks alone).
const batchStateBytes = 4 << 20

// RunBatch is RunWith over several input sets under one backend
// decision.  The problems share walks — of the fast plan
// (fastexec.Plan.ExecuteBatch) or of the simulated machine
// (sim.Loaded.RunBatch) — as many to a walk as batchStateBytes allows,
// and the problems of a walk share one Stats: W2 has no data-dependent
// control, so the run is the same for every input.  Its Decision records
// the walk's width and each problem's share of its wall time.  A
// simulator run with a cycle recorder attached walks alone: the recorder
// sees one run's events.  Any error fails the whole batch, an address outside a
// batched walk's memory envelope (sim.ErrEnvelope) included: such
// problems run one at a time, as the fabric's per-tile path runs them.
func RunBatch(c *Compiled, inputs []map[string][]float64, o RunOptions) ([]map[string][]float64, []*sim.Stats, error) {
	backend, decision, err := chooseBackend(c, o)
	if err != nil {
		return nil, nil, err
	}
	// Whichever executor runs gets the same controls, and a run the guard
	// would abort is refused before either starts.
	ctl := sim.Controls{Ctx: o.Ctx, MaxCycles: o.MaxCycles}
	if err := ctl.Admit(decision.PredictedCycles); err != nil {
		return nil, nil, err
	}
	n := len(inputs)
	hostMems, stats := make([][]float64, n), make([]*sim.Stats, n)
	for i, in := range inputs {
		if hostMems[i], err = c.Info.HostMem(in); err != nil {
			return nil, nil, err
		}
	}
	// The executors report raw positions; wrap the caller's hook so every
	// update carries the modeled total (the denominator of a percent
	// display).  The nil path stays allocation-free.
	if inner := o.Progress; inner != nil {
		total := decision.PredictedCycles
		ctl.Progress = func(u obs.ProgressUpdate) {
			u.TotalCycles = total
			inner(u)
		}
	}
	width := 1
	switch {
	case n == 1: // nothing to walk together
	case backend == BackendFast:
		plan, err := c.FastPlan()
		if err != nil {
			return nil, nil, err
		}
		width = max(1, min(n, batchStateBytes/plan.StateBytes()))
	case !obs.Enabled(o.Recorder):
		if lane := c.load().LaneBytes(); lane > 0 {
			width = max(1, min(n, batchStateBytes/lane))
		}
	}
	for lo := 0; lo < n; lo += width {
		hi := min(lo+width, n)
		start := time.Now()
		var st *sim.Stats
		if backend == BackendFast {
			st, err = runFast(c, hostMems[lo:hi], ctl)
		} else {
			st, err = c.load().RunBatch(sim.Config{Controls: ctl, Recorder: o.Recorder, PCStats: o.Profile}, hostMems[lo:hi])
		}
		if err != nil {
			return nil, nil, err
		}
		d := decision // each walk has a wall time, and perhaps a width, of its own
		d.ActualWallNS = time.Since(start).Nanoseconds() / int64(hi-lo)
		if hi-lo > 1 {
			d.Batch = hi - lo
		}
		st.Backend, st.Decision, st.Obs.Phases = backend, &d, c.Phases
		for i := lo; i < hi; i++ {
			stats[i] = st
		}
	}
	outs := make([]map[string][]float64, n)
	for i := range outs {
		outs[i] = c.Info.Outputs(hostMems[i])
	}
	return outs, stats, nil
}

// runFast executes over the cached dataflow plan, one walk for all the
// host memories, and adds the queue peaks to the executor's record: they
// come from the verifier's proven occupancy bounds — the fast path never
// materializes queues, but the bounds are exactly what the proof
// discharged.
func runFast(c *Compiled, hostMems [][]float64, ctl sim.Controls) (*sim.Stats, error) {
	plan, err := c.FastPlan() // cached after the first run
	if err != nil {
		return nil, err
	}
	stats, err := plan.ExecuteBatch(hostMems, ctl)
	if err != nil {
		return nil, err
	}
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		occ, ok := c.Verified.Data[ch]
		if !ok {
			continue
		}
		kind := obs.QueueX
		if ch == w2.ChanY {
			kind = obs.QueueY
		}
		stats.Obs.Queues = append(stats.Obs.Queues, obs.QueueProfile{
			Name:      fmt.Sprintf("proven:%s", ch),
			Queue:     kind,
			HighWater: int(occ.Max),
		})
	}
	stats.MaxQueue, stats.MaxQueueAt = stats.Obs.MaxQueue()
	return stats, nil
}
