package main

import (
	"fmt"
	"runtime"
	"time"

	"warp"
	"warp/internal/driver"
	"warp/internal/fastexec"
	"warp/internal/interp"
	"warp/internal/obs"
	"warp/internal/sim"
)

// execWorkload is exec-sim or exec-fast: one operation is one
// Program.RunWith of a pre-compiled P8 program on the named backend;
// one unit is one sweep over the eight.
type execWorkload struct {
	seed    int64
	backend string // "sim" or "fast"
	progs   []program
	compd   []*warp.Program
	inputs  []map[string][]float64
	first   []map[string][]float64 // first run's outputs: every later run must match them bit for bit
	cycles  []int64
	ucode   []int64
}

func newExec(seed int64, backend string) instance {
	return &execWorkload{seed: seed, backend: backend}
}

func (w *execWorkload) close() {}

func (w *execWorkload) setup() error {
	w.progs = programs()
	// The same stream as compile-cold's: exec-sim and exec-fast run the
	// same inputs.
	r := newRand(w.seed, "p8-inputs")
	other := warp.BackendFast
	if w.backend == warp.BackendFast {
		other = warp.BackendSim
	}
	for _, p := range w.progs {
		prog, err := warp.Compile(p.execSrc, warp.Options{Pipeline: p.pipeline, Verify: true})
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		in := p.inputs(r)
		// First run: right against the Go reference, and the two
		// backends agree in every output bit and in the cycle count.
		// This also builds the fast plan, so no measured run pays for it.
		out, rs, err := prog.RunWith(warp.RunConfig{Backend: w.backend}, in)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", p.name, w.backend, err)
		}
		if err := p.ref(in).check(out); err != nil {
			return fmt.Errorf("%s: %s: %w", p.name, w.backend, err)
		}
		out2, rs2, err := prog.RunWith(warp.RunConfig{Backend: other}, in)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", p.name, other, err)
		}
		if err := bitIdentical(out, out2); err != nil {
			return fmt.Errorf("%s: sim and fast disagree: %w", p.name, err)
		}
		if rs.Cycles != rs2.Cycles {
			return fmt.Errorf("%s: %s ran %d cycles, %s %d", p.name, w.backend, rs.Cycles, other, rs2.Cycles)
		}
		m := prog.Metrics()
		w.compd = append(w.compd, prog)
		w.inputs = append(w.inputs, in)
		w.first = append(w.first, out)
		w.cycles = append(w.cycles, rs.Cycles)
		w.ucode = append(w.ucode, int64(m.CellInstrs+m.IUInstrs))
	}
	return nil
}

func (w *execWorkload) exact(p *pass) {
	for i := range w.progs {
		p.simCycles += w.cycles[i]
		p.ucodeWords += w.ucode[i]
	}
	p.makespanCycles = p.simCycles // one array: each program's makespan is its run
}

// sweep runs every program once on backend and returns the decisions
// the driver recorded.  A side measurement passes rows to collect the
// latencies; the pass's own sweeps pass nil and become its samples.
func (w *execWorkload) sweep(p *pass, backend string, rows map[string][]float64) []*warp.Decision {
	ds := make([]*warp.Decision, len(w.progs))
	var wall time.Duration
	for i, prog := range w.progs {
		start := time.Now()
		out, rs, err := w.compd[i].RunWith(warp.RunConfig{Backend: backend}, w.inputs[i])
		d := time.Since(start)
		wall += d
		if rows != nil {
			rows[prog.name] = append(rows[prog.name], ms(d))
		} else {
			p.sample(prog.name, d)
		}
		if err != nil {
			p.fail("%s: %s: %v", prog.name, backend, err)
			continue
		}
		ds[i] = rs.Decision
		if rs.Cycles != w.cycles[i] {
			p.fail("%s: %s ran %d cycles, the first run %d", prog.name, backend, rs.Cycles, w.cycles[i])
		} else if err := bitIdentical(out, w.first[i]); err != nil {
			p.fail("%s: %s: not bit-identical to the first run: %v", prog.name, backend, err)
		}
	}
	if rows == nil {
		p.unit(len(w.progs), wall)
	}
	return ds
}

func (w *execWorkload) measure(units int, tick func()) *pass {
	p := newPass()
	for s := 0; s < units; s++ {
		w.sweep(p, w.backend, nil)
		tick()
	}
	w.exact(p)
	return p
}

// sideSweeps is how many sweeps each side measurement of the traced
// pass runs (the other backend, auto, profiling on): enough for a
// median, short enough for the traced pass to stay within its budget.
const sideSweeps = 5

func (w *execWorkload) trace(units int, tr *tracer, tick func()) (*pass, layers) {
	p := newPass()
	l := layers{}
	// The replay needs the artifacts warp.Program keeps private.
	compd := make([]*driver.Compiled, len(w.progs))
	plans := make([]*fastexec.Plan, len(w.progs))
	for i, prog := range w.progs {
		c, err := driver.Compile(prog.execSrc, compileOptions(prog))
		if err != nil {
			p.fail("%s: %v", prog.name, err)
			return p, l
		}
		compd[i] = c
		if plans[i], err = c.FastPlan(); err != nil {
			p.fail("%s: fast plan: %v", prog.name, err)
			return p, l
		}
	}
	simConfig := func(c *driver.Compiled, mem []float64, profile bool) sim.Config {
		return sim.Config{Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host, Skew: c.Skew,
			Lead: c.IUGen.Prologue + 1, HostMem: mem, PCStats: profile}
	}

	// The traced operation: driver.RunWith's three steps through the
	// layers' own entry points.
	var (
		build, extract, engine []float64 // per-sweep totals: µs, µs, ms
		rows                   = map[string][]float64{}
		engineNS               float64
		workUnits              float64 // cell-cycles (sim) or trace operations (fast) per sweep
		addOps, mulOps, active int64
		peakQueue              int
	)
	for s := 0; s < units; s++ {
		var b, x, e, sweep time.Duration
		for i, prog := range w.progs {
			c := compd[i]
			root := tr.span("op:run/"+prog.name, nil)
			start := time.Now()
			var mem []float64
			var err error
			b += tr.timed("interp.BuildHostMem", root, func(*obs.Span) { mem, err = interp.BuildHostMem(c.Info, w.inputs[i]) })
			if err != nil {
				p.fail("%s: %v", prog.name, err)
				root.End()
				continue
			}
			var cycles int64
			var d time.Duration
			if w.backend == warp.BackendSim {
				var st *sim.Stats
				d = tr.timed("sim.Run", root, func(*obs.Span) { st, err = sim.Run(simConfig(c, mem, false)) })
				if err == nil {
					cycles = st.Cycles
					if s == 0 {
						workUnits += float64(st.Cycles) * float64(c.Cells)
						addOps, mulOps, active = addOps+st.AddOps, mulOps+st.MulOps, active+st.CellActive
						if st.MaxQueue > peakQueue {
							peakQueue = st.MaxQueue
						}
					}
				}
			} else {
				var res *fastexec.Result
				d = tr.timed("fastexec.Plan.Execute", root, func(*obs.Span) { res, err = plans[i].Execute(mem, fastexec.ExecConfig{}) })
				if err == nil {
					cycles = res.Cycles
					if s == 0 {
						workUnits += float64(plans[i].Ops()) * float64(c.Cells)
					}
				}
			}
			e += d
			rows[prog.name] = append(rows[prog.name], ms(d))
			var out map[string][]float64
			x += tr.timed("interp.ExtractOutputs", root, func(*obs.Span) { out = interp.ExtractOutputs(c.Info, mem) })
			root.End()
			total := time.Since(start)
			p.sample(prog.name, total)
			sweep += total
			switch {
			case err != nil:
				p.fail("%s: %v", prog.name, err)
			case cycles != w.cycles[i]:
				p.fail("%s: replay ran %d cycles, the first run %d", prog.name, cycles, w.cycles[i])
			default:
				if err := bitIdentical(out, w.first[i]); err != nil {
					p.fail("%s: replay not bit-identical to the first run: %v", prog.name, err)
				}
			}
		}
		build, extract, engine = append(build, us(b)), append(extract, us(x)), append(engine, ms(e))
		engineNS += float64(e)
		p.unit(len(w.progs), sweep)
		tick()
	}
	w.exact(p)
	l["interp.hostmem_build_us"] = median(build)
	l["interp.extract_us"] = median(extract)

	// Allocation per run: one more sweep of the engine alone.
	var mem0, mem1 runtime.MemStats
	mems := make([][]float64, len(w.progs))
	for i, c := range compd {
		mems[i], _ = interp.BuildHostMem(c.Info, w.inputs[i])
	}
	runtime.ReadMemStats(&mem0)
	for i, c := range compd {
		if w.backend == warp.BackendSim {
			_, _ = sim.Run(simConfig(c, mems[i], false)) // checked in the sweeps above
		} else {
			_, _ = plans[i].Execute(mems[i], fastexec.ExecConfig{})
		}
	}
	runtime.ReadMemStats(&mem1)
	n := float64(len(w.progs))
	mallocsPerRun := float64(mem1.Mallocs-mem0.Mallocs) / n
	allocKBPerRun := float64(mem1.TotalAlloc-mem0.TotalAlloc) / n / 1024

	// What the cost model predicted for this backend against what the
	// run took, from the decisions of one sweep through the driver.
	var errFactors []float64
	for _, d := range w.sweep(p, w.backend, map[string][]float64{}) {
		if f := d.ErrorFactor(); f > 0 {
			errFactors = append(errFactors, f)
		}
	}
	l["telemetry.prediction_error_factor"] = geomean(errFactors)

	if w.backend == warp.BackendSim {
		l["sim.run_ms"] = median(engine)
		l["sim.ns_per_cell_cycle"] = engineNS / (workUnits * float64(units))
		l["sim.mallocs_per_run"] = mallocsPerRun
		l["sim.alloc_kb_per_run"] = allocKBPerRun
		if active > 0 {
			l["sim.add_util"] = float64(addOps) / float64(active)
			l["sim.mul_util"] = float64(mulOps) / float64(active)
		}
		l["sim.peak_queue"] = float64(peakQueue)
		for _, prog := range w.progs {
			l["sim.p50_ms."+prog.name] = median(rows[prog.name])
		}
		// Profiling on against off, sweep for sweep.
		var on, off []float64
		for s := 0; s < sideSweeps; s++ {
			for _, profile := range []bool{false, true} {
				start := time.Now()
				for i, c := range compd {
					if _, err := sim.Run(simConfig(c, mems[i], profile)); err != nil {
						p.fail("%s: profile=%v: %v", w.progs[i].name, profile, err)
					}
				}
				if profile {
					on = append(on, ms(time.Since(start)))
				} else {
					off = append(off, ms(time.Since(start)))
				}
			}
		}
		l["sim.profile_overhead_ratio"] = median(on) / median(off)
		return p, l
	}

	l["fastexec.execute_ms"] = median(engine)
	l["fastexec.plan_ops"] = workUnits
	l["fastexec.ns_per_op"] = engineNS / (workUnits * float64(units))
	l["fastexec.mallocs_per_run"] = mallocsPerRun
	l["fastexec.alloc_kb_per_run"] = allocKBPerRun
	for _, prog := range w.progs {
		l["fastexec.p50_ms."+prog.name] = median(rows[prog.name])
	}
	// Cold plan builds: what Compiled.FastPlan does on first use.
	var builds []float64
	for s := 0; s < sideSweeps; s++ {
		var b time.Duration
		for i, c := range compd {
			b += tr.timed("fastexec.Compile", nil, func(*obs.Span) {
				if _, err := fastexec.Compile(fastexec.Program{Cells: c.Cells, Cell: c.Cell, IU: c.IU,
					Host: c.Host, Skew: c.Skew, Lead: c.IUGen.Prologue + 1}); err != nil {
					p.fail("%s: fast plan: %v", w.progs[i].name, err)
				}
			})
		}
		builds = append(builds, ms(b))
	}
	l["fastexec.plan_build_ms"] = median(builds)

	// The three ways through the driver, program by program: how much
	// faster fast is than sim, and what auto costs against the better.
	byBackend := map[string]map[string][]float64{}
	backends := []string{warp.BackendSim, warp.BackendFast, warp.BackendAuto}
	for _, backend := range backends {
		byBackend[backend] = map[string][]float64{}
	}
	// Interleaved, so that the host's drift hits all three alike, and in
	// rotating order, so that none always inherits another's warm caches.
	for s := 0; s < 2*len(backends); s++ {
		for i := range backends {
			backend := backends[(s+i)%len(backends)]
			w.sweep(p, backend, byBackend[backend])
		}
	}
	var speedups, regrets []float64
	slower := 0
	for _, prog := range w.progs {
		simMS := median(byBackend[warp.BackendSim][prog.name])
		fastMS := median(byBackend[warp.BackendFast][prog.name])
		autoMS := median(byBackend[warp.BackendAuto][prog.name])
		speedups = append(speedups, simMS/fastMS)
		if fastMS > simMS {
			slower++
		}
		best := simMS
		if fastMS < best {
			best = fastMS
		}
		regrets = append(regrets, autoMS/best)
	}
	l["fastexec.speedup_vs_sim"] = geomean(speedups)
	l["fastexec.programs_slower_than_sim"] = float64(slower)
	l["driver.auto_regret_ratio"] = geomean(regrets)
	return p, l
}
