package service

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"warp/internal/obs"
	"warp/internal/prof"
	"warp/internal/telemetry"
)

// decisionKey identifies one backend-decision series: which executor
// was chosen and why.
type decisionKey struct {
	backend string
	reason  string
}

// Metrics aggregates everything the daemon exports at /metrics: request
// counters by outcome, the compile/run/queue-wait latency histograms
// (telemetry.Histogram families keyed by cache result and backend), the
// backend decision counts by backend and reason, and the per-run
// obs.Summary aggregates (simulated cycles, FPU utilization, peak queue
// occupancy).  All methods are safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	compiles map[string]int64 // result label -> count (hit|miss|error|rejected)
	runs     map[string]int64 // result label -> count (ok|error|timeout|rejected)
	backends map[string]int64 // backend label -> completed runs (sim|fast)

	// Latency histogram families: compiles keyed by cache result
	// (hit|miss|rejected), completed runs keyed by backend (sim|fast),
	// and the admission-queue wait for every pooled request.
	compileLatency map[string]*telemetry.Histogram
	runLatency     map[string]*telemetry.Histogram
	queueWait      *telemetry.Histogram

	// Backend decision audit: how often each (backend, reason) pair was
	// chosen.
	decisions map[decisionKey]int64

	// Per-compile-phase accumulated wall-clock time and counts (parse,
	// cellgen, verify, ...), from the driver's phase records.
	phaseSeconds map[string]float64
	phaseCounts  map[string]int64

	// Scheduler introspection accumulated over cache-miss compilations:
	// modulo-scheduler and skew-search work counters from prof.SchedTotals.
	sched      prof.SchedTotals
	schedComps int64 // compilations folded into sched

	// Aggregates over completed runs, from obs.Profile.Summarize.
	simCycles  int64
	addUtilSum float64
	mulUtilSum float64
	busySum    float64
	runSamples int64
	peakQueue  int

	// Partitioned (fabric) jobs: outcomes plus tile-level counters.
	fabricJobs       map[string]int64 // result label -> count (ok|error|timeout|rejected)
	fabricTiles      int64            // tiles planned across completed jobs
	fabricDispatched int64            // tile attempts started (retries included)
	fabricRetried    int64            // attempts beyond each tile's first
	fabricFailed     int64            // tiles that exhausted their attempts
	fabricBatches    int64            // batched first attempts (several tiles, one walk of the fast plan)
	fabricFallbacks  int64            // batches that failed and re-ran tile by tile
	fabricCycles     int64            // aggregate simulated cycles across tiles
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		compiles:       map[string]int64{},
		runs:           map[string]int64{},
		backends:       map[string]int64{},
		compileLatency: map[string]*telemetry.Histogram{},
		runLatency:     map[string]*telemetry.Histogram{},
		queueWait:      telemetry.NewLatency(),
		decisions:      map[decisionKey]int64{},
		phaseSeconds:   map[string]float64{},
		phaseCounts:    map[string]int64{},
		fabricJobs:     map[string]int64{},
	}
}

// hist returns the family member for key, creating it on first use so
// the exposition only carries series for outcomes that happened.
func hist(m map[string]*telemetry.Histogram, key string) *telemetry.Histogram {
	h := m[key]
	if h == nil {
		h = telemetry.NewLatency()
		m[key] = h
	}
	return h
}

// Compile records one compile request: result is "hit", "miss",
// "error" or "rejected" (static verification failed); seconds is the
// request's service time (0 is fine for hits).
func (m *Metrics) Compile(result string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.compiles[result]++
	if result != "error" {
		hist(m.compileLatency, result).Observe(seconds)
	}
}

// CompilePhases folds one compilation's per-phase timing records into
// the per-phase aggregates exported at /metrics (one series per phase,
// including "verify" when the verifier ran).
func (m *Metrics) CompilePhases(phases []obs.PhaseStat) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ph := range phases {
		m.phaseSeconds[ph.Name] += ph.Seconds
		m.phaseCounts[ph.Name]++
	}
}

// CompileSched folds one compilation's scheduler work counters into
// the warpd_sched_* aggregates.  Called beside CompilePhases on every
// cache miss, so the series attribute compile-time cost to the
// scheduler searches that caused it.
func (m *Metrics) CompileSched(t prof.SchedTotals) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sched.Loops += t.Loops
	m.sched.Pipelined += t.Pipelined
	m.sched.Attempts += t.Attempts
	m.sched.Placements += t.Placements
	m.sched.Evictions += t.Evictions
	m.sched.EmitRejects += t.EmitRejects
	m.sched.SearchNS += t.SearchNS
	m.sched.SkewOps += t.SkewOps
	m.sched.SkewPairs += t.SkewPairs
	m.sched.SkewPruned += t.SkewPruned
	m.sched.SkewNS += t.SkewNS
	m.schedComps++
}

// observe records one finished run request or partitioned (fabric) job.
// Every outcome counts under its result label — a fabric job with the
// tile attempts it made before it finished or died; a completed one adds
// its backend-labelled latency, the executor that ran it (a partitioned
// job counts once, not per tile), its (backend, reason) decision
// counter and, single-array, its summary.
func (m *Metrics) observe(o *runOutcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := o.fabric; f != nil {
		m.fabricJobs[o.result]++
		m.fabricTiles += int64(f.Tiles)
		m.fabricDispatched += int64(f.Dispatched)
		m.fabricRetried += int64(f.Retried)
		m.fabricFailed += int64(f.Failed)
		m.fabricBatches += int64(f.Batches)
		m.fabricFallbacks += int64(f.BatchFallbacks)
		m.fabricCycles += f.AggregateCycles
	} else {
		m.runs[o.result]++
	}
	if o.result != "ok" {
		return
	}
	backend := o.stats.Backend
	if backend != "" {
		m.backends[backend]++
	} else {
		backend = "unknown"
	}
	hist(m.runLatency, backend).Observe(o.seconds)
	if d := o.decision; d != nil {
		m.decisions[decisionKey{d.Backend, d.Reason}]++
	}
	if o.fabric != nil {
		return
	}
	sum := o.summary
	m.simCycles += sum.Cycles
	m.addUtilSum += sum.AddUtil
	m.mulUtilSum += sum.MulUtil
	m.busySum += sum.BusyFrac
	m.runSamples++
	if sum.PeakQueue > m.peakQueue {
		m.peakQueue = sum.PeakQueue
	}
}

// QueueWait records one pooled request's admission-queue wait — the
// time between submission and a worker picking the job up.
func (m *Metrics) QueueWait(seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueWait.Observe(seconds)
}

// MedianRunSeconds estimates the median completed-run service time from
// the merged per-backend latency histograms — the observed-load signal
// behind the 429 Retry-After hint.  0 means no run has completed yet.
func (m *Metrics) MedianRunSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	hs := make([]*telemetry.Histogram, 0, len(m.runLatency))
	for _, h := range m.runLatency {
		hs = append(hs, h)
	}
	merged := telemetry.MergeAll(hs...)
	if merged == nil {
		return 0
	}
	return merged.Quantile(0.5)
}

// WritePrometheus renders the registry, plus the given cache, template
// cache and pool snapshots, in the Prometheus text exposition format
// (version 0.0.4).
func (m *Metrics) WritePrometheus(w io.Writer, cs CacheStats, ts TemplateCacheStats, ps PoolStats) {
	m.mu.Lock()
	defer m.mu.Unlock()

	family(w, "warpd_compile_requests_total", "counter", "Compile requests by result (hit|miss|error).")
	writeLabelled(w, "warpd_compile_requests_total", "result", m.compiles)

	family(w, "warpd_run_requests_total", "counter", "Run requests by result (ok|error|timeout|rejected).")
	writeLabelled(w, "warpd_run_requests_total", "result", m.runs)

	family(w, "warpd_backend_runs_total", "counter", "Completed runs by execution backend (sim|fast).")
	writeLabelled(w, "warpd_backend_runs_total", "backend", m.backends)

	telemetry.WriteVec(w, "warpd_compile_seconds",
		"Compile request service time by cache result.", "result", m.compileLatency)

	m.writeDecisions(w)

	if len(m.phaseCounts) > 0 {
		family(w, "warpd_compile_phase_seconds_total", "counter", "Accumulated wall-clock time per compiler phase.")
		names := make([]string, 0, len(m.phaseCounts))
		for name := range m.phaseCounts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "warpd_compile_phase_seconds_total{phase=%q} %s\n", name, formatFloat(m.phaseSeconds[name]))
		}
		family(w, "warpd_compile_phase_total", "counter", "Phase executions per compiler phase.")
		for _, name := range names {
			fmt.Fprintf(w, "warpd_compile_phase_total{phase=%q} %d\n", name, m.phaseCounts[name])
		}
	}
	counter(w, "warpd_sched_compiles_total", "Cache-miss compilations folded into the scheduler counters.", m.schedComps)
	counter(w, "warpd_sched_loops_total", "Loops seen by the cell scheduler.", m.sched.Loops)
	counter(w, "warpd_sched_pipelined_total", "Loops that software-pipelined successfully.", m.sched.Pipelined)
	counter(w, "warpd_sched_ii_attempts_total", "Initiation intervals tried by the modulo scheduler.", m.sched.Attempts)
	counter(w, "warpd_sched_placements_total", "Operation placements tried across all scheduling attempts.", m.sched.Placements)
	counter(w, "warpd_sched_evictions_total", "Modulo-table evictions (placement conflicts undone).", m.sched.Evictions)
	counter(w, "warpd_sched_emit_rejects_total", "Schedules rejected at microcode emission.", m.sched.EmitRejects)
	counter(w, "warpd_sched_search_seconds_total", "Wall-clock time inside the modulo-schedule search.", formatFloat(float64(m.sched.SearchNS)/1e9))
	counter(w, "warpd_sched_skew_ops_total", "Points evaluated on the loop tree by skew searches.", m.sched.SkewOps)
	counter(w, "warpd_sched_skew_pairs_total", "Statement pairs analyzed by the skew bound.", m.sched.SkewPairs)
	counter(w, "warpd_sched_skew_pruned_total", "Statement pairs pruned before analysis.", m.sched.SkewPruned)
	counter(w, "warpd_sched_skew_seconds_total", "Wall-clock time inside the skew search.", formatFloat(float64(m.sched.SkewNS)/1e9))

	telemetry.WriteVec(w, "warpd_run_seconds",
		"Run request service time by execution backend.", "backend", m.runLatency)
	telemetry.Write(w, "warpd_queue_wait_seconds",
		"Admission-queue wait of pooled requests.", m.queueWait)

	gauge(w, "warpd_cache_entries", "Compiled programs resident in the cache.", cs.Entries)
	counter(w, "warpd_cache_hits_total", "Cache hits (including singleflight waiters).", cs.Hits)
	counter(w, "warpd_cache_misses_total", "Cache misses (driver compilations started).", cs.Misses)
	counter(w, "warpd_cache_evictions_total", "LRU evictions.", cs.Evictions)

	gauge(w, "warpd_template_entries", "Symbolic templates resident in the template cache.", ts.Templates)
	gauge(w, "warpd_template_programs", "Instantiated programs resident across all templates.", ts.Programs)
	counter(w, "warpd_template_hits_total", "Template-cache hits (the program compiled from a template at one bound vector was resident; singleflight waiters included).", ts.Hits)
	counter(w, "warpd_template_misses_total", "Template-cache misses (compilation of a template at one bound vector started).", ts.Misses)
	counter(w, "warpd_template_evictions_total", "Instantiated programs evicted from the template cache.", ts.Evictions)

	gauge(w, "warpd_queue_depth", "Jobs waiting in the admission queue.", ps.QueueDepth)
	gauge(w, "warpd_queue_high_water", "Peak admission-queue depth since start.", ps.HighWater)
	counter(w, "warpd_queue_rejected_total", "Requests refused with 429 (queue full).", ps.Rejected)
	gauge(w, "warpd_inflight_runs", "Simulations executing right now.", ps.InFlight)
	gauge(w, "warpd_workers", "Configured worker count.", ps.Workers)

	counter(w, "warpd_sim_cycles_total", "Machine cycles simulated across completed runs.", m.simCycles)
	counter(w, "warpd_fpu_add_utilization_sum", "Sum over runs of the ADD-FPU issue fraction.", formatFloat(m.addUtilSum))
	counter(w, "warpd_fpu_mul_utilization_sum", "Sum over runs of the MUL-FPU issue fraction.", formatFloat(m.mulUtilSum))
	counter(w, "warpd_busy_fraction_sum", "Sum over runs of the cell-busy fraction.", formatFloat(m.busySum))
	counter(w, "warpd_run_samples_total", "Completed runs contributing to the utilization sums.", m.runSamples)
	gauge(w, "warpd_peak_queue_occupancy", "Highest data-queue high-water mark over all runs.", m.peakQueue)

	family(w, "warpd_fabric_jobs_total", "counter", "Partitioned-run jobs by result (ok|error|timeout).")
	writeLabelled(w, "warpd_fabric_jobs_total", "result", m.fabricJobs)
	counter(w, "warpd_fabric_tiles_total", "Tiles planned across partitioned jobs.", m.fabricTiles)
	counter(w, "warpd_fabric_tile_dispatch_total", "Tile attempts started (retries included).", m.fabricDispatched)
	counter(w, "warpd_fabric_tile_retries_total", "Tile attempts beyond each tile's first.", m.fabricRetried)
	counter(w, "warpd_fabric_tile_failures_total", "Tiles that exhausted their attempts.", m.fabricFailed)
	counter(w, "warpd_fabric_batches_total", "Batched first attempts: several tiles through one walk of the fast plan.", m.fabricBatches)
	counter(w, "warpd_fabric_batch_fallbacks_total", "Batches that failed and re-ran their tiles one by one.", m.fabricFallbacks)
	counter(w, "warpd_fabric_cycles_total", "Aggregate simulated cycles across all tiles.", m.fabricCycles)
}

// writeDecisions renders the decision counter (two labels, so it
// bypasses writeLabelled).
func (m *Metrics) writeDecisions(w io.Writer) {
	family(w, "warpd_decision_total", "counter", "Backend decisions by chosen backend and reason.")
	keys := make([]decisionKey, 0, len(m.decisions))
	for k := range m.decisions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].backend != keys[j].backend {
			return keys[i].backend < keys[j].backend
		}
		return keys[i].reason < keys[j].reason
	})
	for _, k := range keys {
		fmt.Fprintf(w, "warpd_decision_total{backend=%q,reason=%q} %d\n", k.backend, k.reason, m.decisions[k])
	}
}

// family writes one metric family's HELP and TYPE header.
func family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// counter and gauge write a whole single-sample family; v is an integer
// or an already formatted float.
func counter(w io.Writer, name, help string, v any) {
	family(w, name, "counter", help)
	fmt.Fprintf(w, "%s %v\n", name, v)
}

func gauge(w io.Writer, name, help string, v any) {
	family(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %v\n", name, v)
}

func formatFloat(f float64) string { return telemetry.FormatFloat(f) }

// writeLabelled emits one sample per label value in sorted order, so
// the output is deterministic and scrape-diff friendly.
func writeLabelled(w io.Writer, name, label string, vals map[string]int64) {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, vals[k])
	}
}
