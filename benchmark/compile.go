package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"warp/internal/cellgen"
	"warp/internal/commgraph"
	"warp/internal/conc"
	"warp/internal/driver"
	"warp/internal/hostgen"
	"warp/internal/ir"
	"warp/internal/iugen"
	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/opt"
	"warp/internal/prof"
	"warp/internal/skew"
	"warp/internal/verify"
	"warp/internal/w2"
)

// compileCold is the compile-cold workload: one operation is one cold
// driver.Compile (what warp.Compile wraps field for field) of one P8
// program with Verify on; one unit is one sweep over the eight.
type compileCold struct {
	seed  int64
	progs []program
	// ref is each program's artifact from set-up: every later compile
	// must agree with it, cheaply on every compile (digest) and byte for
	// byte (driver.Fingerprint) on the last sweep.
	ref []*driver.Compiled
}

func newCompileCold(seed int64) instance { return &compileCold{seed: seed} }

func (w *compileCold) close() {}

func compileOptions(p program) driver.Options {
	return driver.Options{Pipeline: p.pipeline, Verify: true}
}

// ucodeWords is the program's cell plus IU microcode length.
func ucodeWords(c *driver.Compiled) int64 {
	return int64(c.Cell.NumInstrs() + c.IU.NumInstrs())
}

// digest is the cheap per-compile identity check: driver.Fingerprint
// renders every host stream word (25 MB for colorseg, half a second),
// so it runs on the last sweep only and this runs on every compile.
func digest(c *driver.Compiled) string {
	proven := 0
	if c.Verified != nil {
		proven = c.Verified.Checked
	}
	return fmt.Sprintf("cells=%d skew=%d cell=%d iu=%d cycles=%d occ=%v backoff=%v proven=%d host=%d",
		c.Cells, c.Skew, c.Cell.NumInstrs(), c.IU.NumInstrs(), c.ModeledCycles(), c.QueueOcc,
		c.PipelineBackoff, proven, hostWords(c.Host))
}

func hostWords(h *hostgen.Program) int {
	n := 0
	for _, seq := range h.In {
		n += len(seq)
	}
	for _, seq := range h.Out {
		n += len(seq)
	}
	return n
}

func (w *compileCold) setup() error {
	w.progs = programs()
	r := newRand(w.seed, "p8-inputs")
	for _, p := range w.progs {
		c, err := driver.Compile(p.src, compileOptions(p))
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		w.ref = append(w.ref, c)
		// The compiled code must compute the right answer: run it once
		// against the plain Go reference.
		exe := c
		if p.execSrc != p.src {
			if exe, err = driver.Compile(p.execSrc, compileOptions(p)); err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
		}
		in := p.inputs(r)
		out, stats, err := driver.RunWith(exe, in, driver.RunOptions{})
		if err != nil {
			return fmt.Errorf("%s: run: %w", p.name, err)
		}
		if err := p.ref(in).check(out); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if stats.Cycles != exe.ModeledCycles() {
			return fmt.Errorf("%s: ran %d cycles, the compiler modelled %d", p.name, stats.Cycles, exe.ModeledCycles())
		}
	}
	return nil
}

// exact fills the pass's modelled-machine counters from the reference
// artifacts.
func (w *compileCold) exact(p *pass) {
	for _, c := range w.ref {
		p.simCycles += c.ModeledCycles()
		p.ucodeWords += ucodeWords(c)
	}
	p.makespanCycles = p.simCycles // one array: each program's makespan is its run
}

// checkFingerprints compares the last sweep's artifacts with the
// set-up's, byte for byte.
func (w *compileCold) checkFingerprints(p *pass, last []*driver.Compiled, what string) {
	for i, c := range last {
		if c != nil && driver.Fingerprint(c) != driver.Fingerprint(w.ref[i]) {
			p.fail("%s: %s fingerprint differs from the set-up compile's", w.progs[i].name, what)
		}
	}
}

func (w *compileCold) measure(units int, tick func()) *pass {
	p := newPass()
	last := make([]*driver.Compiled, len(w.progs))
	for s := 0; s < units; s++ {
		var sweep time.Duration
		for i, prog := range w.progs {
			start := time.Now()
			c, err := driver.Compile(prog.src, compileOptions(prog))
			d := time.Since(start)
			p.sample(prog.name, d)
			sweep += d
			switch {
			case err != nil:
				p.fail("%s: %v", prog.name, err)
			case digest(c) != digest(w.ref[i]):
				p.fail("%s: compile %d produced %s, set-up produced %s", prog.name, s, digest(c), digest(w.ref[i]))
			default:
				last[i] = c
			}
		}
		p.unit(len(w.progs), sweep)
		tick()
	}
	w.checkFingerprints(p, last, "driver.Compile")
	w.exact(p)
	return p
}

// compileStages are the staged replay's span names in driver order;
// each maps to the per-layer metric of the same stem.
var compileStages = []string{
	"w2.parse", "w2.sema", "ir.build", "opt.optimize", "commgraph.check", "cellgen.generate",
	"prof.debugmap", "skew.minskew", "iugen.generate", "hostgen.generate", "verify.verify",
}

// stagedCompile replays driver.Compile's stage order serially through
// the layers' public entry points, a span around each, adding each
// stage's time to acc.  It mirrors the driver's pipeline back-off (a
// failed pipelined attempt is retried with the plain schedule), so that
// its result is comparable with the driver's by driver.Fingerprint —
// the assertion that keeps this replay honest when the driver changes.
func stagedCompile(src string, opts driver.Options, tr *tracer, parent *obs.Span, acc map[string]time.Duration) (*driver.Compiled, error) {
	c, err := stagedAttempt(src, opts, tr, parent, acc)
	var verr *verify.Error
	if err != nil && opts.Pipeline && !errors.As(err, &verr) {
		plain := opts
		plain.Pipeline = false
		if c2, err2 := stagedAttempt(src, plain, tr, parent, acc); err2 == nil {
			c2.PipelineBackoff = true
			c2.BackoffReason = err.Error()
			return c2, nil
		}
	}
	return c, err
}

func stagedAttempt(src string, opts driver.Options, tr *tracer, parent *obs.Span, acc map[string]time.Duration) (*driver.Compiled, error) {
	workers := runtime.GOMAXPROCS(0)
	c := &driver.Compiled{Src: src}
	var err error
	stage := func(name string, f func()) bool {
		if err == nil {
			acc[name] += tr.timed(name, parent, func(*obs.Span) { f() })
		}
		return err == nil
	}

	stage("w2.parse", func() { c.Module, err = w2.Parse(src) })
	stage("w2.sema", func() { c.Info, err = w2.Analyze(c.Module) })
	stage("ir.build", func() { c.IR, err = ir.Build(c.Info) })
	stage("opt.optimize", func() { c.OptStats = opt.Optimize(c.IR) })
	if err != nil {
		return nil, err
	}
	c.Cells = c.Module.Cells.Last - c.Module.Cells.First + 1
	stage("commgraph.check", func() {
		c.Comm = commgraph.Analyze(c.IR)
		err = commgraph.Check(c.IR, c.Cells)
	})
	stage("cellgen.generate", func() {
		c.CellGen, err = cellgen.Generate(c.IR, cellgen.Options{Pipeline: opts.Pipeline, Workers: workers})
	})
	if err != nil {
		return nil, err
	}
	c.Cell, c.Sched = c.CellGen.Cell, c.CellGen.Sched
	stage("prof.debugmap", func() { c.Debug = prof.BuildDebugMap(c.Module.Name, src, c.Cell) })

	stage("skew.minskew", func() {
		c.Timing = cellgen.Timing(c.Cell)
		c.QueueOcc = map[w2.Channel]int64{}
		if c.Cells < 2 {
			return
		}
		chans := make([]w2.Channel, 0, len(c.Timing))
		for ch := range c.Timing {
			chans = append(chans, ch)
		}
		sort.Slice(chans, func(i, j int) bool { return fmt.Sprint(chans[i]) < fmt.Sprint(chans[j]) })
		analyses := make([]*skew.Analysis, len(chans))
		searches := make([]prof.SkewSearch, len(chans))
		errs := make([]error, len(chans))
		conc.Do(workers, len(chans), func(i int) {
			a, e := skew.NewAnalysis(c.Timing[chans[i]], c.Timing[chans[i]])
			if e != nil {
				errs[i] = e
				return
			}
			s, st, e := a.MinSkewStats()
			if e != nil {
				errs[i] = e
				return
			}
			analyses[i] = a
			searches[i] = prof.SkewSearch{Channel: fmt.Sprint(chans[i]), Method: st.Method,
				Ops: st.Ops, Pairs: st.Pairs, Pruned: st.Pruned, Skew: s}
		})
		c.Skew = 1
		for i := range chans {
			if errs[i] != nil {
				err = errs[i]
				return
			}
			c.Sched.Skews = append(c.Sched.Skews, searches[i])
			if searches[i].Skew > c.Skew {
				c.Skew = searches[i].Skew
			}
		}
		for i, ch := range chans {
			if c.QueueOcc[ch], err = analyses[i].CheckQueue(c.Skew, mcode.QueueDepth); err != nil {
				return
			}
		}
	})
	stage("iugen.generate", func() {
		if c.IUGen, err = iugen.Generate(c.Cell); err == nil {
			c.IU = c.IUGen.IU
		}
	})
	stage("hostgen.generate", func() { c.Host, err = hostgen.GenerateParallel(c.Cell, workers) })
	stage("verify.verify", func() {
		c.Verified, err = verify.VerifyParallel(verify.Program{
			Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host,
			Skew: c.Skew, Lead: c.IUGen.Prologue + 1,
		}, workers)
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (w *compileCold) trace(units int, tr *tracer, tick func()) (*pass, layers) {
	p := newPass()
	l := layers{}
	var (
		stageSweeps = map[string][]float64{} // stage -> per-sweep total, ms
		wholeSweeps []float64                // driver.Compile per-sweep total, ms
		wholeRows   = map[string][]float64{} // program -> driver.Compile latency, ms
		coverage    []float64                // per replay: stage spans / replay wall
		mallocs     uint64
		allocBytes  uint64
		compiles    int
		lastDriver  = make([]*driver.Compiled, len(w.progs))
		lastStaged  = make([]*driver.Compiled, len(w.progs))
		mem0, mem1  runtime.MemStats
	)
	for s := 0; s < units; s++ {
		acc := map[string]time.Duration{}
		var whole, sweep time.Duration
		for i, prog := range w.progs {
			opts := compileOptions(prog)
			root := tr.span("op:compile/"+prog.name, nil)

			// The whole compile, as the untraced pass runs it.
			runtime.ReadMemStats(&mem0)
			var c *driver.Compiled
			var err error
			d := tr.timed("driver.Compile", root, func(*obs.Span) { c, err = driver.Compile(prog.src, opts) })
			runtime.ReadMemStats(&mem1)
			mallocs += mem1.Mallocs - mem0.Mallocs
			allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
			compiles++
			whole += d
			wholeRows[prog.name] = append(wholeRows[prog.name], ms(d))
			if err != nil {
				p.fail("%s: %v", prog.name, err)
			} else {
				lastDriver[i] = c
			}

			// The same compile, stage by stage: the traced operation.
			before := sumDurations(acc)
			var staged *driver.Compiled
			d = tr.timed("replay", root, func(sp *obs.Span) { staged, err = stagedCompile(prog.src, opts, tr, sp, acc) })
			root.End()
			p.sample(prog.name, d)
			sweep += d
			coverage = append(coverage, float64(sumDurations(acc)-before)/float64(d))
			switch {
			case err != nil:
				p.fail("%s: staged replay: %v", prog.name, err)
			case digest(staged) != digest(w.ref[i]):
				p.fail("%s: staged replay produced %s, set-up produced %s", prog.name, digest(staged), digest(w.ref[i]))
			default:
				lastStaged[i] = staged
			}
		}
		for _, name := range compileStages {
			stageSweeps[name] = append(stageSweeps[name], ms(acc[name]))
		}
		wholeSweeps = append(wholeSweeps, ms(whole))
		p.unit(len(w.progs), sweep)
		tick()
	}
	w.checkFingerprints(p, lastDriver, "driver.Compile")
	w.checkFingerprints(p, lastStaged, "staged replay")
	w.exact(p)

	var serial float64
	for _, name := range compileStages {
		m := median(stageSweeps[name])
		l[name+"_ms"] = m
		serial += m
	}
	l["driver.compile_ms"] = median(wholeSweeps)
	if l["driver.compile_ms"] > 0 {
		l["driver.dag_overlap_ratio"] = serial / l["driver.compile_ms"]
	}
	l["driver.trace_coverage_ratio"] = median(coverage)
	l["driver.mallocs_per_compile"] = float64(mallocs) / float64(compiles)
	l["driver.alloc_mb_per_compile"] = float64(allocBytes) / float64(compiles) / (1 << 20)
	for _, prog := range w.progs {
		l["driver.p50_ms."+prog.name] = median(wholeRows[prog.name])
	}
	for _, c := range w.ref {
		t := c.Sched.Totals()
		l["w2.source_lines"] += float64(c.W2Lines)
		l["opt.rewrites"] += float64(c.OptStats.Total())
		l["cellgen.ucode_words"] += float64(c.Cell.NumInstrs())
		l["cellgen.loops_pipelined"] += float64(c.CellGen.PipelinedLoops)
		l["cellgen.ii_attempts"] += float64(t.Attempts)
		l["cellgen.placements"] += float64(t.Placements)
		l["cellgen.evictions"] += float64(t.Evictions)
		l["skew.ops_enumerated"] += float64(t.SkewOps)
		l["skew.pairs_analyzed"] += float64(t.SkewPairs)
		l["skew.pairs_pruned"] += float64(t.SkewPruned)
		l["iugen.ucode_words"] += float64(c.IU.NumInstrs())
		l["hostgen.stream_words"] += float64(hostWords(c.Host))
		l["verify.propositions"] += float64(c.Verified.Checked)
	}
	return p, l
}

func sumDurations(m map[string]time.Duration) time.Duration {
	var s time.Duration
	for _, d := range m {
		s += d
	}
	return s
}
