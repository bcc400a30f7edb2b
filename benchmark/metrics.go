package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// decl declares one metric of the ledger, in BENCHMARK.json's form.
// The tables below are the single source of the metric names:
// BENCHMARK.json is rendered from them (-manifest) and a test fails
// when the two differ.
type decl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// exactBound is the bound of the modelled-machine metrics.  They are
// exact outputs of a deterministic compiler, so any worsening is a
// regression: one cycle in a sum of millions is a share of 1e-7, far
// above this.
const exactBound = 1e-9

// endToEnd lists what a user of the stack sees.  Every workload reports
// every one of them (see README.md for the per-workload definitions).
var endToEnd = []decl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Bound: exactBound},
	{Name: "ucode_words", Unit: "words", Better: "lower", Bound: exactBound},
	{Name: "makespan_cycles", Unit: "cycles", Better: "lower", Bound: exactBound},
}

// p8 names the eight benchmark programs, in sweep order.
var p8 = []string{
	"polynomial", "conv1d", "binop", "colorseg",
	"mandelbrot", "fft1024", "matmul32", "matmul32-plain",
}

// fabricJobs names the three fabric-farm job kinds, in sweep order.
var fabricJobs = []string{"mm80-fast", "conv8192-fast", "mm40-sim"}

// perLayer lists the traced pass's metrics, one group per module.  A
// traced run reports all of them; a metric of a layer the workload does
// not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []decl {
	var out []decl
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, decl{Name: n, Unit: unit, Better: better})
		}
	}
	rows := func(prefix string, names []string) []string {
		r := make([]string, len(names))
		for i, n := range names {
			r[i] = prefix + n
		}
		return r
	}

	// Compile layers (compile-cold): per-sweep medians over the P8.
	add("lower", "ms", "w2.parse_ms", "w2.sema_ms", "ir.build_ms", "opt.optimize_ms",
		"commgraph.check_ms", "cellgen.generate_ms", "prof.debugmap_ms", "skew.minskew_ms",
		"iugen.generate_ms", "hostgen.generate_ms", "verify.verify_ms", "driver.compile_ms")
	add("higher", "ratio", "driver.dag_overlap_ratio", "driver.trace_coverage_ratio")
	add("lower", "count", "driver.mallocs_per_compile")
	add("lower", "MB", "driver.alloc_mb_per_compile")
	add("lower", "count", "w2.source_lines", "opt.rewrites")
	add("lower", "words", "cellgen.ucode_words")
	add("higher", "count", "cellgen.loops_pipelined")
	add("lower", "count", "cellgen.ii_attempts", "cellgen.placements", "cellgen.evictions",
		"skew.ops_enumerated", "skew.pairs_analyzed")
	add("higher", "count", "skew.pairs_pruned")
	add("lower", "words", "iugen.ucode_words", "hostgen.stream_words")
	add("lower", "count", "verify.propositions")
	add("lower", "ms", rows("driver.p50_ms.", p8)...)

	// Executor layers (exec-sim, exec-fast).
	add("lower", "us", "interp.hostmem_build_us", "interp.extract_us")
	add("lower", "ms", "sim.run_ms")
	add("lower", "ns", "sim.ns_per_cell_cycle")
	add("lower", "count", "sim.mallocs_per_run")
	add("lower", "KB", "sim.alloc_kb_per_run")
	add("higher", "ratio", "sim.add_util", "sim.mul_util")
	add("lower", "words", "sim.peak_queue")
	add("lower", "ratio", "sim.profile_overhead_ratio")
	add("lower", "ms", rows("sim.p50_ms.", p8)...)
	add("lower", "ms", "fastexec.plan_build_ms")
	add("lower", "count", "fastexec.plan_ops")
	add("lower", "ms", "fastexec.execute_ms")
	add("lower", "ns", "fastexec.ns_per_op")
	add("lower", "count", "fastexec.mallocs_per_run")
	add("lower", "KB", "fastexec.alloc_kb_per_run")
	add("higher", "ratio", "fastexec.speedup_vs_sim")
	add("lower", "count", "fastexec.programs_slower_than_sim")
	add("lower", "ms", rows("fastexec.p50_ms.", p8)...)
	add("lower", "ratio", "telemetry.prediction_error_factor", "driver.auto_regret_ratio")

	// Symbolic layer (template-sweep).
	add("lower", "us", "symbolic.template_parse_us")
	add("lower", "ms", "symbolic.class_build_ms")
	add("lower", "us", "symbolic.instantiate_us")
	add("lower", "ms", "symbolic.fallback_ms")
	add("lower", "ratio", "symbolic.fallback_ratio")
	add("lower", "count", "symbolic.class_builds", "symbolic.probe_compiles")
	add("higher", "count", "symbolic.instantiations")
	add("higher", "ratio", "symbolic.speedup_vs_concrete")
	add("lower", "ratio", "symbolic.sweep_vs_concrete_ratio")

	// Service layer (serve-warm, serve-churn).
	add("lower", "us", "service.transport_us", "service.handler_us", "service.glue_us",
		"service.decode_us", "service.encode_us", "service.cache_hit_us")
	add("lower", "ms", "service.cache_miss_ms")
	add("lower", "us", "service.template_hit_us")
	add("lower", "ms", "service.template_miss_ms")
	add("lower", "us", "service.pool_run_us", "service.queue_wait_mean_us", "service.queue_wait_p99_us")
	add("higher", "ratio", "service.cache_hit_ratio", "service.template_hit_ratio")
	add("lower", "count", "service.cache_evictions", "service.template_fallbacks", "service.rejected_429")
	add("higher", "ratio", "service.backend_fast_ratio")
	add("lower", "B", "service.bytes_in_per_req", "service.bytes_out_per_req")
	add("lower", "count", "service.mallocs_per_req")
	add("higher", "ratio", "service.flight_overhead_ratio")

	// Fabric layer (fabric-farm): per-sweep medians over the three jobs.
	add("lower", "us", "fabric.plan_us", "fabric.stage_us")
	add("lower", "ms", "fabric.tile_run_ms")
	add("lower", "us", "fabric.assemble_us")
	add("higher", "ratio", "fabric.farm_efficiency", "fabric.wall_scaling_fast", "fabric.wall_scaling_sim")
	add("lower", "count", "fabric.tiles")
	add("lower", "words", "fabric.staged_words")
	add("lower", "cycles", "fabric.agg_cycles")
	add("lower", "count", "fabric.retried")
	add("lower", "ms", rows("fabric.p50_ms.", fabricJobs)...)

	// Every workload.
	add("higher", "ratio", "trace.overhead_ratio")
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing (0 for counts and ratios);
	// it is printed beside the value and kept out of the JSON, whose
	// entries have exactly a value and a unit.
	N int `json:"-"`
}

// result is what one (workload, pass) run reports; its JSON form is the
// last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is the raw outcome of one measured pass over a workload: one
// latency sample per operation, filed under the operation's row, plus
// the exact counters of the modelled machine.
type pass struct {
	rowOrder  []string
	rows      map[string][]float64 // row -> per-op latency, ms
	rates     []float64            // per unit of work: operations per second
	attempted int
	failed    int
	errs      []string // first few failure messages, for the operator

	simCycles, ucodeWords, makespanCycles int64
}

func newPass() *pass { return &pass{rows: map[string][]float64{}} }

// sample files one operation's latency under its row.
func (p *pass) sample(row string, d time.Duration) {
	if _, ok := p.rows[row]; !ok {
		p.rowOrder = append(p.rowOrder, row)
	}
	p.rows[row] = append(p.rows[row], ms(d))
	p.attempted++
}

// unit closes one unit of work (a sweep, a template's traffic, a chunk
// of requests): ops operations took wall.
func (p *pass) unit(ops int, wall time.Duration) {
	if wall > 0 {
		p.rates = append(p.rates, float64(ops)/wall.Seconds())
	}
}

// fail counts one failed operation (an error, a refused request or an
// output that failed its check) and keeps the first few messages.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// merge folds another pass's samples and failures into p (the service
// workloads run one pass per client and merge them).
func (p *pass) merge(o *pass) {
	for _, row := range o.rowOrder {
		if _, ok := p.rows[row]; !ok {
			p.rowOrder = append(p.rowOrder, row)
		}
		p.rows[row] = append(p.rows[row], o.rows[row]...)
	}
	p.rates = append(p.rates, o.rates...)
	p.attempted += o.attempted
	p.failed += o.failed
	for _, e := range o.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
}

// samples returns every latency sample of the pass, pooled.
func (p *pass) samples() []float64 {
	var all []float64
	for _, row := range p.rowOrder {
		all = append(all, p.rows[row]...)
	}
	return all
}

// typical is the latency a row's operations typically take: the lower
// quartile of its samples.  On the reference host nearly all noise is
// slow-down — neighbours of the virtual machine, collections, the other
// client's turn on the core — so the faster quartile is the steadier
// estimate of what the code costs: over ten runs its spread was half
// the median's on five of the seven workloads and larger on none.
func typical(v []float64) float64 { return quantile(v, 0.25) }

// opsPerS is the pass's throughput: the upper quartile over its units
// of work of the unit's operations per second — typical's counterpart
// for a rate.
func (p *pass) opsPerS() float64 { return quantile(p.rates, 0.75) }

// geomeanMS is the geometric mean over the pass's rows of each row's
// typical latency.  A statistic of the pooled samples would sit on the
// boundary between two equally likely rows and flip with the seed.
func (p *pass) geomeanMS() float64 {
	var ts []float64
	for _, row := range p.rowOrder {
		ts = append(ts, typical(p.rows[row]))
	}
	return geomean(ts)
}

// tailBeyond is how many samples the tail percentile keeps beyond it.
const tailBeyond = 30

// tailMS is the pass's tail latency.  It is printed with each run and
// is not a bounded metric: between two sets of runs of one commit it
// moved by up to 40 %, more than any bound could hold.  It is the 99th
// percentile, or on a pass of fewer than 3000 operations the highest
// percentile that still has tailBeyond samples beyond it — a percentile
// resting on two or three samples is noise, not a tail.  Each sample is
// first divided by its row's typical latency and the percentile of
// these ratios is scaled by geomeanMS: the pooled latencies of rows two
// orders of magnitude apart would only report which row is slow.
func (p *pass) tailMS() float64 {
	var ratios []float64
	for _, row := range p.rowOrder {
		m := typical(p.rows[row])
		if m <= 0 {
			continue
		}
		for _, x := range p.rows[row] {
			ratios = append(ratios, x/m)
		}
	}
	q := 0.99
	if n := float64(len(ratios)); n > tailBeyond && 1-tailBeyond/n < q {
		q = 1 - tailBeyond/n
	}
	return p.geomeanMS() * quantile(ratios, q)
}

// endToEndMetrics renders the pass as the end-to-end metric set, its
// times at reference host speed: setupHost and host are the host
// factors of the set-ups and of the pass (see hostClock).
func (p *pass) endToEndMetrics(setup []time.Duration, setupHost, host float64) map[string]metric {
	setups := make([]float64, len(setup))
	for i, d := range setup {
		setups[i] = d.Seconds()
	}
	out := map[string]metric{
		"setup_s":         {Value: median(setups) / setupHost, N: len(setups)},
		"ops_per_s":       {Value: p.opsPerS() * host, N: p.attempted},
		"op_geomean_ms":   {Value: p.geomeanMS() / host, N: p.attempted},
		"sim_cycles":      {Value: float64(p.simCycles)},
		"ucode_words":     {Value: float64(p.ucodeWords)},
		"makespan_cycles": {Value: float64(p.makespanCycles)},
	}
	for _, d := range endToEnd {
		m := out[d.Name]
		m.Unit = d.Unit
		out[d.Name] = m
	}
	return out
}

// layers collects the traced pass's per-layer values by name.
type layers map[string]float64

// metrics renders the full per-layer set, its times at reference host
// speed (host is the traced pass's host factor): declared metrics the
// workload did not fill read 0; an undeclared name is a programming
// error.
func (l layers) metrics(host float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		v := l[d.Name]
		switch d.Unit {
		case "ms", "us", "ns":
			v /= host
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range l {
		if _, ok := out[name]; !ok {
			panic("benchmark: undeclared per-layer metric " + name)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of v (0 for an empty slice); v is not
// modified.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by the nearest-rank rule on a
// sorted copy (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// geomean returns the geometric mean of the positive entries of v (0
// when there are none).
func geomean(v []float64) float64 {
	var sum float64
	n := 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// mean is the arithmetic mean of v (0 for an empty slice).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
