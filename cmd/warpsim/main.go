// Command warpsim compiles a W2 program and executes it on the
// simulated Warp machine.
//
// Usage:
//
//	warpsim [-pipeline] [-cells n] [-seed n] [-inputs data.json]
//	        [-bounds n=32[,k=5...]] [-backend auto|sim|fast] [-crosscheck] [-progress]
//	        [-check] [-trace out.json] [-stats]
//	        [-max-cycles n] program.w2
//	warpsim -arrays n [-backend auto|sim|fast] [-check] [-progress]
//	        [-tile-retries n] [-tile-deadline d] problem.json
//
// The program argument is a W2 source file, or the name of a built-in
// workload (matmul, polynomial, conv1d, binop, fft, colorseg,
// mandelbrot) for quick experiments.  With -bounds it is a ${...}
// template, compiled at that bound vector.
//
// A .json program argument is instead a fabric problem spec — an
// oversized workload partitioned into array-sized tiles and farmed
// across -arrays concurrent simulator instances (see examples/fabric):
//
//	{"workload": "matmul", "m": 48, "k": 48, "n": 48, "tile": 12, "seed": 7}
//	{"workload": "conv1d", "nx": 4096, "kernel": 9, "window": 512, "seed": 7}
//
// With -check the stitched result is verified element-exact against
// the reference interpreter evaluating the full, un-partitioned
// problem.
//
// Inputs are read from a JSON object mapping "in" parameter names to
// number arrays; missing arrays (or all of them, without -inputs) are
// filled with seeded random values.  With -check the simulated outputs
// are compared against the reference interpreter.
//
// Every compile runs the static verifier, and a program it refuses is
// not run.  Backends: -backend picks the executor.  "auto" (the
// default) runs the fast dataflow executor — cycle counts come from the
// verifier's closed-form model — and the cycle-accurate simulator when
// per-cycle observability (-trace, -profile, -flame, -pprof) is
// requested.  "sim" forces simulation; "fast" forces the fast
// executor.  -crosscheck runs the program on BOTH backends and fails
// unless the outputs are bit-identical and the cycle counts exactly
// equal, then reports the wall-clock speedup.
//
// Live progress: -progress streams the run's position as a single
// carriage-return-updated stderr line — cycle N of the modeled total
// for a single array, completed tiles for a fabric job — finished with
// a newline before anything else prints, so it never interleaves with
// -stats output.  -stats additionally reports the backend decision
// audit: which executor ran the program, why, its exact cycle count and
// the measured wall time.
//
// Observability: -trace writes a Chrome trace-event JSON file (load it
// at https://ui.perfetto.dev — one track per cell, functional unit and
// queue, plus a compiler-phase track); -stats prints the per-cell
// utilization/stall table and the compiler's per-phase timing.
//
// Profiling: -profile records the exact per-µPC cycle counters and
// prints the source-line hot-spot report (with the busy/starved/bubble
// stall breakdown) plus the scheduler-introspection report; -flame
// writes the same attribution as folded flame-graph stacks
// (flamegraph.pl / speedscope input); -pprof writes it as gzipped
// pprof protobuf for `go tool pprof`.  -flame and -pprof imply
// profiling.  On a fabric run the profile is the merge of every tile's
// exact attribution.
//
// Every output path (-o, -trace, -flame, -pprof) is
// created up front, before compiling or simulating anything, so an
// unwritable path fails immediately — exit status 1 and a message
// naming the flag — instead of after a long run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"warp"
	"warp/internal/sim"
	"warp/internal/workloads"
)

// options is the parsed command line, plus the output files it names:
// every output path (-o, -trace, -flame, -pprof) is opened
// before anything is compiled or simulated.  A single-array run and a
// fabric job read the same options and share every step below that
// does not depend on which of the two is running.
type options struct {
	pipeline  bool
	cells     int
	seed      int64
	inPath    string
	check     bool
	stats     bool
	maxCycles int64
	arrays    int
	tileRetry int
	tileDL    time.Duration
	profile   bool // -profile: print the text reports
	bounds    map[string]int64
	backend   string
	crossFlag bool
	progress  bool

	outPath, tracePath, flamePath, pprofPath string
	outFile, traceFile, flameFile, pprofFile *os.File
}

// profiling reports whether the run collects the source-line profile:
// -flame and -pprof imply it.
func (o *options) profiling() bool { return o.profile || o.flamePath != "" || o.pprofPath != "" }

func main() {
	var o options
	flag.BoolVar(&o.pipeline, "pipeline", false, "software pipeline innermost loops")
	flag.IntVar(&o.cells, "cells", 0, "override the array size declared by the cellprogram")
	flag.Int64Var(&o.seed, "seed", 1, "seed for generated inputs")
	flag.StringVar(&o.inPath, "inputs", "", "JSON file with input arrays")
	flag.BoolVar(&o.check, "check", false, "verify against the reference interpreter")
	flag.StringVar(&o.outPath, "o", "", "write outputs as JSON to this file (default stdout summary)")
	flag.StringVar(&o.tracePath, "trace", "", "write a Chrome trace-event JSON file (Perfetto-loadable)")
	flag.BoolVar(&o.stats, "stats", false, "print per-cell utilization/stall table and compile-phase timing")
	flag.Int64Var(&o.maxCycles, "max-cycles", 0, fmt.Sprintf("abort the simulation after this many cycles (0 = default, %d)", sim.Controls{}.Limit()))
	flag.IntVar(&o.arrays, "arrays", 1, "farm a fabric problem spec across this many simulated arrays")
	flag.IntVar(&o.tileRetry, "tile-retries", 1, "extra attempts a livelocked tile gets before the job fails")
	flag.DurationVar(&o.tileDL, "tile-deadline", 0, "per-tile attempt deadline (0 = none)")
	flag.BoolVar(&o.profile, "profile", false, "record the exact source-line cycle profile and print the hot-spot and scheduler reports")
	flag.StringVar(&o.flamePath, "flame", "", "write the profile as folded flame-graph stacks (implies profiling)")
	flag.StringVar(&o.pprofPath, "pprof", "", "write the profile as gzipped pprof protobuf for `go tool pprof` (implies profiling)")
	o.bounds = warp.BoundsFlag()
	flag.StringVar(&o.backend, "backend", "auto", "execution backend: auto (fast for verified programs), sim, or fast")
	flag.BoolVar(&o.crossFlag, "crosscheck", false, "run on both backends and fail unless outputs are bit-identical and cycles exactly equal")
	flag.BoolVar(&o.progress, "progress", false, "stream live run progress as a single updating stderr line")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: warpsim [flags] program.w2 | problem.json")
		flag.Usage()
		os.Exit(2)
	}

	// Open every output path before compiling or simulating anything:
	// an unwritable path must fail now, with the flag named, not after
	// the run has spent its cycles.
	o.traceFile = createOut("-trace", o.tracePath)
	o.flameFile = createOut("-flame", o.flamePath)
	o.pprofFile = createOut("-pprof", o.pprofPath)
	o.outFile = createOut("-o", o.outPath)

	if spec, err := loadFabricSpec(flag.Arg(0)); err != nil {
		fail(err)
	} else if spec != nil {
		if o.traceFile != nil {
			fail(fmt.Errorf("-trace applies to single-array runs, not fabric problem specs"))
		}
		if o.crossFlag {
			fail(fmt.Errorf("-crosscheck applies to single-array runs, not fabric problem specs"))
		}
		if len(o.bounds) > 0 {
			fail(fmt.Errorf("-bounds applies to single-program runs, not fabric problem specs"))
		}
		runFabric(spec, &o)
		return
	}
	src, err := loadSource(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	compile := concrete(src)
	if len(o.bounds) > 0 {
		compile = func(opts warp.Options) (*warp.Program, error) {
			tmpl, err := warp.CompileTemplate(src, opts)
			if err != nil {
				return nil, err
			}
			return tmpl.Program(o.bounds)
		}
	}
	prog := o.compile(compile, warp.Options{Pipeline: o.pipeline, Cells: o.cells})

	inputs := map[string][]float64{}
	if o.inPath != "" {
		data, err := os.ReadFile(o.inPath)
		if err != nil {
			fail(err)
		}
		if err := json.Unmarshal(data, &inputs); err != nil {
			fail(fmt.Errorf("parsing %s: %w", o.inPath, err))
		}
	}
	fillRandom(prog, inputs, o.seed)

	var out map[string][]float64
	var rstats *warp.RunStats
	if o.crossFlag {
		if o.traceFile != nil || o.profiling() {
			fail(fmt.Errorf("-crosscheck needs both backends plain; drop -trace/-profile/-flame/-pprof"))
		}
		out, rstats = runCrossCheck(prog, inputs, o.maxCycles)
	} else {
		runCfg, tick := o.runConfig()
		if o.traceFile != nil {
			runCfg.Trace = o.traceFile
		}
		out, rstats, err = prog.RunWith(runCfg, inputs)
		tick.Stop()
		if err == nil && o.traceFile != nil {
			if err = o.traceFile.Close(); err == nil {
				fmt.Printf("trace: wrote %s (load in https://ui.perfetto.dev)\n", o.tracePath)
			}
		}
		if err != nil {
			failRun(err, o.maxCycles)
		}
	}
	m := prog.Metrics()
	fmt.Printf("module %s: %d cells, skew %d, %d cycles, peak queue %d (%s)\n",
		m.Name, m.Cells, m.Skew, rstats.Cycles, rstats.MaxQueue, rstats.MaxQueueAt)

	o.writeProfile(rstats.Source, prog.SchedReport())

	if o.stats {
		fmt.Println()
		fmt.Print(rstats.Profile.UtilizationReport())
		fmt.Println()
		fmt.Print(prog.PhaseReport())
		if m.PipelineBackoff {
			fmt.Printf("pipeline backoff: %s\n", m.BackoffReason)
		}
		fmt.Print(decisionLine(rstats.Decision))
	}

	if o.check {
		want, err := prog.Interpret(inputs)
		if err != nil {
			fail(fmt.Errorf("interpreter: %w", err))
		}
		for name, w := range want {
			g := out[name]
			for i := range w {
				if !approxEqual(g[i], w[i]) {
					fail(fmt.Errorf("mismatch: %s[%d] = %v, interpreter says %v", name, i, g[i], w[i]))
				}
			}
		}
		fmt.Println("check: simulated outputs match the reference interpreter")
	}

	if !o.writeOutputs(out) && !o.stats {
		for name, vals := range out {
			n := len(vals)
			if n > 8 {
				fmt.Printf("%s: %v ... (%d values)\n", name, vals[:8], n)
			} else {
				fmt.Printf("%s: %v\n", name, vals)
			}
		}
	}
}

// compile checks the -backend flag, then compiles through compile —
// warp.Compile of the source, or of a template at its -bounds — or exits.
func (o *options) compile(compile func(warp.Options) (*warp.Program, error), opts warp.Options) *warp.Program {
	switch o.backend {
	case "", warp.BackendAuto, warp.BackendSim, warp.BackendFast:
	default:
		fail(fmt.Errorf("bad -backend %q (want auto, sim or fast)", o.backend))
	}
	prog, err := compile(opts)
	if err != nil {
		fail(err)
	}
	return prog
}

// runConfig is the run configuration both kinds of run start from, with
// the -progress ticker wired in (nil when the flag is off).  The caller
// Stops the ticker when the run returns.
func (o *options) runConfig() (warp.RunConfig, *progressTicker) {
	cfg := warp.RunConfig{MaxCycles: o.maxCycles, Profile: o.profiling(), Backend: o.backend}
	if !o.progress {
		return cfg, nil
	}
	tick := newProgressTicker(os.Stderr)
	cfg.Progress = tick.update
	return cfg, tick
}

// writeOutputs writes the output arrays as JSON to the -o file and
// reports whether there is one.
func (o *options) writeOutputs(out map[string][]float64) bool {
	if o.outFile == nil {
		return false
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		fail(err)
	}
	err = writeClose(o.outFile, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		fail(fmt.Errorf("-o: %w", err))
	}
	return true
}

// concrete is the compile closure of a plain program: warp.Compile of src.
func concrete(src string) func(warp.Options) (*warp.Program, error) {
	return func(o warp.Options) (*warp.Program, error) { return warp.Compile(src, o) }
}

// runCrossCheck executes the program on both backends and fails unless
// they agree bit for bit: identical output words, exactly equal cycle
// counts.  It returns the fast run's results and prints the measured
// wall-clock speedup.
func runCrossCheck(prog *warp.Program, inputs map[string][]float64, maxCycles int64) (map[string][]float64, *warp.RunStats) {
	simStart := time.Now()
	simOut, simStats, err := prog.RunWith(warp.RunConfig{MaxCycles: maxCycles, Backend: warp.BackendSim}, inputs)
	if err != nil {
		failRun(fmt.Errorf("crosscheck (sim): %w", err), maxCycles)
	}
	simWall := time.Since(simStart)
	fastStart := time.Now()
	fastOut, fastStats, err := prog.RunWith(warp.RunConfig{MaxCycles: maxCycles, Backend: warp.BackendFast}, inputs)
	if err != nil {
		failRun(fmt.Errorf("crosscheck (fast): %w", err), maxCycles)
	}
	fastWall := time.Since(fastStart)

	if fastStats.Cycles != simStats.Cycles {
		fail(fmt.Errorf("crosscheck: cycle counts diverge: fast %d, sim %d", fastStats.Cycles, simStats.Cycles))
	}
	words := 0
	for name, sv := range simOut {
		fv := fastOut[name]
		if len(fv) != len(sv) {
			fail(fmt.Errorf("crosscheck: %s has %d fast values, %d sim values", name, len(fv), len(sv)))
		}
		for i := range sv {
			if math.Float64bits(fv[i]) != math.Float64bits(sv[i]) {
				fail(fmt.Errorf("crosscheck: %s[%d] diverges: fast %v, sim %v", name, i, fv[i], sv[i]))
			}
		}
		words += len(sv)
	}
	speedup := float64(simWall) / float64(fastWall)
	fmt.Printf("crosscheck: backends agree — %d cycles, %d output words bit-identical; wall sim %s, fast %s (%.1fx)\n",
		simStats.Cycles, words, simWall.Round(time.Microsecond), fastWall.Round(time.Microsecond), speedup)
	return fastOut, fastStats
}

// loadSource reads the W2 file, falling back to a built-in workload
// when the argument names one instead of an existing file.
func loadSource(arg string) (string, error) {
	if data, err := os.ReadFile(arg); err == nil {
		return string(data), nil
	} else if !os.IsNotExist(err) {
		return "", err
	}
	builtin := map[string]func() string{
		"matmul":     func() string { return workloads.Matmul(10) },
		"polynomial": workloads.PolynomialPaper,
		"conv1d":     workloads.Conv1DPaper,
		"binop":      workloads.BinopPaper,
		"colorseg":   workloads.ColorSegPaper,
		"mandelbrot": workloads.MandelbrotPaper,
		"fft":        workloads.FFTPaper,
	}
	if gen, ok := builtin[arg]; ok {
		return gen(), nil
	}
	return "", fmt.Errorf("no such file or built-in workload: %s", arg)
}

// fillRandom fills any missing input array with seeded random values
// of the declared size.
func fillRandom(prog *warp.Program, inputs map[string][]float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range prog.Params() {
		if p.Out {
			continue
		}
		if _, ok := inputs[p.Name]; ok {
			continue
		}
		arr := make([]float64, p.Size)
		for i := range arr {
			arr[i] = math.Round(rng.Float64()*16-8) / 4
		}
		inputs[p.Name] = arr
	}
}

func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// createOut opens one output path up front, before any compilation or
// simulation, so an unwritable path fails immediately with the flag
// that named it.  An empty path (flag unset) returns nil.
func createOut(flagName, path string) *os.File {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warpsim: %s: cannot write %s: %v\n", flagName, path, err)
		os.Exit(1)
	}
	return f
}

// writeClose runs a writer against the file and closes it, reporting
// the first error — a short write on close (full disk) must not pass
// silently.
func writeClose(f *os.File, write func(w io.Writer) error) error {
	err := write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeProfile emits the source profile in the requested formats: the
// text hot-spot and scheduler reports to stdout for -profile, folded
// stacks for -flame, pprof protobuf for -pprof.
func (o *options) writeProfile(sp *warp.SourceProfile, schedReport string) {
	if sp == nil {
		return
	}
	if o.profile {
		fmt.Println()
		fmt.Print(sp.Report())
		fmt.Println()
		fmt.Print(schedReport)
	}
	if o.flameFile != nil {
		if err := writeClose(o.flameFile, sp.WriteFolded); err != nil {
			fail(fmt.Errorf("-flame: %w", err))
		}
		fmt.Printf("profile: wrote %s (folded stacks; flamegraph.pl or speedscope)\n", o.flamePath)
	}
	if o.pprofFile != nil {
		if err := writeClose(o.pprofFile, sp.WritePprof); err != nil {
			fail(fmt.Errorf("-pprof: %w", err))
		}
		fmt.Printf("profile: wrote %s (view with `go tool pprof -top %s`)\n", o.pprofPath, o.pprofPath)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "warpsim:", err)
	os.Exit(1)
}

// failRun reports a failed simulation, spelling out a livelock hit on
// the cycle guard (the machine was still making no progress at the
// limit — usually a mismatched IU/cell program or an input shorter than
// the host program expects).
func failRun(err error, maxCycles int64) {
	if errors.Is(err, warp.ErrLivelock) {
		fmt.Fprintf(os.Stderr, "warpsim: livelock: the simulation made no progress within %d cycles.\n", sim.Controls{MaxCycles: maxCycles}.Limit())
		fmt.Fprintf(os.Stderr, "warpsim: the array is deadlocked or the program is larger than the cycle budget;\n")
		fmt.Fprintf(os.Stderr, "warpsim: rerun with a larger -max-cycles if the workload is legitimately long.\n")
		os.Exit(3)
	}
	fail(err)
}
