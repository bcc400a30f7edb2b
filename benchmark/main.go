// Command benchmark is the repository's performance ledger: seven named
// workloads over the whole stack (compiler, both executors, symbolic
// templates, the warpd service, the fabric), each measured end to end
// in an untraced pass and layer by layer in a traced pass.  README.md
// describes the workloads and metrics; BENCHMARK.json declares them.
//
//	benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// runs one pass of one workload and prints its metrics as
// "workload metric value unit" lines followed by one JSON object.
// Without -workload every workload runs, untraced then traced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"warp/internal/obs"
)

// A run sets its workload up at least minSetups times, and then until
// the set-ups have taken setupShare of -seconds or there are maxSetups
// of them; setup_s is the median.  One set-up is a single sample of a
// sub-second time, too noisy to hold a bound, and the cheapest set-ups
// (40 ms) are the noisiest.
const (
	minSetups  = 3
	maxSetups  = 9
	setupShare = 0.25
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 6

// tracedShare is the traced pass's length as a share of the untraced
// pass's: the traced pass also runs an untraced baseline of the same
// length and each layer's own side measurements.
const tracedShare = 0.25

// instance is one set-up of a workload.
type instance interface {
	// setup generates the inputs, compiles and starts whatever the
	// operations need, checks the first outputs against the references
	// and warms up.  Its duration is the workload's setup time.
	setup() error
	// measure runs units units of work (sweeps, repetitions or requests
	// per client) with tracing off, calling tick between them (see
	// hostClock).
	measure(units int, tick func()) *pass
	// trace runs units units of work through the layers' public entry
	// points with a span around each call, and reports the per-layer
	// metrics.
	trace(units int, tr *tracer, tick func()) (*pass, layers)
	// close stops everything setup started.
	close()
}

// workload is one named entry of the ledger.
type workload struct {
	name string
	why  string
	// rate is how many units one second of -seconds buys: the operation
	// counts are fixed per run, not cut off by a clock, so that every
	// count-type metric repeats exactly.  The rates are frozen so that a
	// pass takes about -seconds on the 2-core reference host.
	rate float64
	new  func(seed int64) instance
}

func (w workload) units(seconds float64) int {
	return int(math.Max(1, math.Round(w.rate*seconds)))
}

// suite is the ledger, in report order.
var suite = []workload{
	{
		name: "compile-cold",
		why:  "cold verified compiles of the eight programs: every compiler phase works, the executors do not",
		rate: 5, new: newCompileCold,
	},
	{
		name: "exec-sim",
		why:  "pre-compiled programs on the cycle-accurate simulator: internal/sim's inner loop does the work",
		rate: 4, new: func(seed int64) instance { return newExec(seed, "sim") },
	},
	{
		name: "exec-fast",
		why:  "same programs and inputs on the verified fast executor: Plan.Execute dominates, dense and sparse traces side by side",
		rate: 17, new: func(seed int64) instance { return newExec(seed, "fast") },
	},
	{
		name: "template-sweep",
		why:  "fresh symbolic templates under mixed hot and spread size traffic: class builds, instantiations and fallbacks",
		rate: 2, new: newTemplateSweep,
	},
	{
		name: "serve-warm",
		why:  "warpd /run over loopback, every request a cache hit: decode, admission, lookup, encode dominate",
		rate: 900, new: func(seed int64) instance { return newServe(seed, false) },
	},
	{
		name: "serve-churn",
		why:  "warpd with small caches over 78 keys: misses, evictions, singleflight and template fallbacks dominate",
		rate: 700, new: func(seed int64) instance { return newServe(seed, true) },
	},
	{
		name: "fabric-farm",
		why:  "partitioned matmul and conv1d jobs on two arrays: staging, farming and stitching around tiny tile runs",
		rate: 15, new: newFabricFarm,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range suite {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs one pass of one workload.  Spans of a traced pass
// are appended to tr.
func runWorkload(w workload, seed int64, seconds float64, traced bool, tr *tracer) (result, error) {
	minReps := minSetups
	if traced {
		minReps = 1 // setup_s is an end-to-end metric; the traced pass does not report it
	}
	clock := newHostClock()
	// Three probes around every set-up: a set-up has no units of work to
	// probe between.
	probe := func() {
		for i := 0; i < 3; i++ {
			clock.tick()
		}
	}
	var inst instance
	var setups []time.Duration
	var spent time.Duration
	probe()
	budget := time.Duration(setupShare * seconds * float64(time.Second))
	for i := 0; i < maxSetups && (i < minReps || (!traced && spent < budget)); i++ {
		if inst != nil {
			inst.close()
		}
		inst = w.new(seed)
		start := time.Now()
		if err := inst.setup(); err != nil {
			inst.close()
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start))
		spent += setups[i]
		probe()
	}
	defer inst.close()
	setupHost := clock.factor()
	// Start every pass from a collected heap, so that the garbage of the
	// earlier set-ups is not charged to the first operations.
	runtime.GC()

	units := w.units(seconds)
	if !traced {
		p := inst.measure(units, clock.tick)
		host := clock.factor()
		report(os.Stderr, w.name, p, host)
		return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
			Metrics: p.endToEndMetrics(setups, setupHost, host)}, nil
	}

	units = int(math.Max(1, math.Round(float64(units)*tracedShare)))
	base := inst.measure(units, clock.tick)
	baseHost := clock.factor()
	runtime.GC()
	p, l := inst.trace(units, tr, clock.tick)
	host := clock.factor()
	if p.opsPerS() > 0 {
		l["trace.overhead_ratio"] = (base.opsPerS() * baseHost) / (p.opsPerS() * host)
	}
	// Determinism self-check: the modelled machine may not depend on
	// whether the pass was traced.
	if base.simCycles != p.simCycles || base.ucodeWords != p.ucodeWords || base.makespanCycles != p.makespanCycles {
		p.fail("exact metrics differ between the untraced and the traced pass: cycles %d/%d, ucode %d/%d, makespan %d/%d",
			base.simCycles, p.simCycles, base.ucodeWords, p.ucodeWords, base.makespanCycles, p.makespanCycles)
	}
	report(os.Stderr, w.name+" (untraced baseline)", base, baseHost)
	report(os.Stderr, w.name+" (traced)", p, host)
	failed := base.failed + p.failed
	return result{Correct: failed == 0, Attempted: base.attempted + p.attempted, Failed: failed, Metrics: l.metrics(host)}, nil
}

// report tells the operator the pass's host factor and why operations
// failed.
func report(w io.Writer, name string, p *pass, host float64) {
	fmt.Fprintf(w, "%s: host factor %.3f; as measured: ops_per_s %.6g, op_geomean_ms %.6g, tail %.6g ms\n",
		name, host, p.opsPerS(), p.geomeanMS(), p.tailMS())
	for _, e := range p.errs {
		fmt.Fprintf(w, "%s: FAILED: %s\n", name, e)
	}
}

// printMetrics writes the "workload metric value unit" lines in
// declaration order.
func printMetrics(w io.Writer, name string, decls []decl, ms map[string]metric) {
	for _, d := range decls {
		m, ok := ms[d.Name]
		if !ok {
			continue
		}
		if m.N > 0 {
			fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", name, d.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "%s %s %.6g %s\n", name, d.Name, m.Value, m.Unit)
		}
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestEntry `json:"workloads"`
	EndToEnd   []decl          `json:"end_to_end"`
	PerLayer   []decl          `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range suite {
		m.Workloads = append(m.Workloads, manifestEntry{w.name, w.why})
	}
	return m
}

// ledger is the -out results file: every result of one invocation with
// the conditions it was measured under.
type ledger struct {
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Results    map[string]result `json:"results"` // "<workload>/untraced" or "<workload>/traced"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all, untraced then traced)")
	seed := fs.Int64("seed", 1, "generator seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured pass; scales the fixed operation counts")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	out := fs.String("out", "", "directory to write results.json and trace.json (Chrome trace events) into")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildManifest()); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	type job struct {
		w      workload
		traced bool
	}
	var jobs []job
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		jobs = []job{{w, *trace == 1}}
	} else {
		for _, w := range suite {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	}

	tr := newTracer()
	led := ledger{Seed: *seed, Seconds: *seconds, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Results: map[string]result{}}
	var last result
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, j := range jobs {
		res, err := runWorkload(j.w, *seed, *seconds, j.traced, tr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		decls, key := endToEnd, j.w.name+"/untraced"
		if j.traced {
			decls, key = perLayer, j.w.name+"/traced"
		}
		printMetrics(stdout, j.w.name, decls, res.Metrics)
		led.Results[key] = res
		last = res
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for n, m := range res.Metrics {
			total.Metrics[j.w.name+"/"+n] = m
		}
	}
	if *out != "" {
		if err := writeOut(*out, led, tr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if len(jobs) > 1 {
		last = total
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !last.Correct {
		return 1
	}
	return 0
}

// writeOut writes the ledger and the span log into dir.
func writeOut(dir string, led ledger, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteChromeSpans(f, tr.spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
