package main

import (
	"fmt"
	"time"

	"warp"
	"warp/internal/obs"
)

// drawsPerTemplate is how many bound vectors one repetition sends each
// template.
const drawsPerTemplate = 100

// templateSpec is one of the six templates of a repetition: a family
// under one schedule, with its size traffic.
type templateSpec struct {
	name    string
	fam     family
	opts    warp.Options
	traffic []bounds
	// hot is what set-up learned about the hot-size programs: every
	// later instantiation of a hot size must reproduce it.
	hot map[string]hotProgram
}

type hotProgram struct {
	ucode      int64
	cellCycles int64
	skew       int64
	cycles     int64 // machine cycles of a run
}

// templateSweep is the template-sweep workload: one operation is one
// Template.ProgramDetail; one unit is one repetition — six fresh
// templates, drawsPerTemplate bound vectors each — so that class builds
// and fallbacks are part of every run and not a one-off.
type templateSweep struct {
	seed  int64
	specs []*templateSpec
}

func newTemplateSweep(seed int64) instance { return &templateSweep{seed: seed} }

func (w *templateSweep) close() {}

// outcome names the row of an instantiation from how it was served.
func outcome(d *warp.TemplateDetail) string {
	switch {
	case d.ClassBuilt:
		return "class-build"
	case d.Symbolic:
		return "instantiate"
	}
	return "fallback"
}

func (w *templateSweep) setup() error {
	traffic := newRand(w.seed, "template-traffic")
	data := newRand(w.seed, "template-inputs")
	for _, fam := range families {
		for _, pipeline := range []bool{true, false} {
			name := fam.name + "-plain"
			if pipeline {
				name = fam.name + "-pipelined"
			}
			spec := &templateSpec{name: name, fam: fam,
				opts:    warp.Options{Pipeline: pipeline, Verify: true},
				traffic: sizeTraffic(traffic, fam, drawsPerTemplate),
				hot:     map[string]hotProgram{}}
			w.specs = append(w.specs, spec)

			// Warm up on the hot sizes, and check what the template serves
			// for them: run each program against the Go reference.
			tmpl, err := warp.CompileTemplate(fam.sym, spec.opts)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			for _, b := range fam.hot {
				prog, err := tmpl.Program(b)
				if err != nil {
					return fmt.Errorf("%s %v: %w", name, b, err)
				}
				in := fam.inputs(data, b)
				out, rs, err := prog.Run(in)
				if err != nil {
					return fmt.Errorf("%s %v: run: %w", name, b, err)
				}
				if err := fam.ref(b, in).check(out); err != nil {
					return fmt.Errorf("%s %v: %w", name, b, err)
				}
				m := prog.Metrics()
				spec.hot[b.String()] = hotProgram{ucode: int64(m.CellInstrs + m.IUInstrs),
					cellCycles: m.CellCycles, skew: m.Skew, cycles: rs.Cycles}
			}
		}
	}
	return nil
}

func (w *templateSweep) exact(p *pass) {
	for _, spec := range w.specs {
		for _, h := range spec.hot {
			p.simCycles += h.cycles
			p.ucodeWords += h.ucode
		}
	}
	p.makespanCycles = p.simCycles // one array: each program's makespan is its run
}

// served is one event of the traced pass: an instantiation, or with a
// nil detail the parse of a fresh template.
type served struct {
	spec   *templateSpec
	b      bounds
	detail *warp.TemplateDetail
	d      time.Duration
}

// repetition sends every fresh template its traffic: one unit of work
// (the six templates serve at rates too far apart to be units of their
// own).  tr is nil on the untraced pass; each is called after
// every operation of the traced one.
func (w *templateSweep) repetition(p *pass, tr *tracer, tick func(), each func(served)) []*warp.Template {
	var tmpls []*warp.Template
	var wall time.Duration
	ops := 0
	for _, spec := range w.specs {
		var tmpl *warp.Template
		var err error
		parse := tr.timed("warp.CompileTemplate", nil, func(*obs.Span) { tmpl, err = warp.CompileTemplate(spec.fam.sym, spec.opts) })
		if err != nil {
			p.fail("%s: %v", spec.name, err)
			continue
		}
		tmpls = append(tmpls, tmpl)
		if each != nil {
			each(served{spec: spec, d: parse})
		}
		ops += len(spec.traffic)
		for _, b := range spec.traffic {
			var prog *warp.Program
			var detail *warp.TemplateDetail
			root := tr.span("op:instantiate/"+spec.name, nil)
			start := time.Now()
			sp := tr.span("warp.Template.ProgramDetail", root)
			prog, detail, err = tmpl.ProgramDetail(b, nil)
			d := time.Since(start)
			wall += d
			if err != nil {
				sp.End()
				root.End()
				p.sample(spec.name+"/error", d)
				p.fail("%s %v: %v", spec.name, b, err)
				continue
			}
			sp.Annotate("served", outcome(detail))
			sp.End()
			root.End()
			p.sample(spec.name+"/"+outcome(detail), d)
			if h, ok := spec.hot[b.String()]; ok {
				m := prog.Metrics()
				if got := (hotProgram{int64(m.CellInstrs + m.IUInstrs), m.CellCycles, m.Skew, h.cycles}); got != h {
					p.fail("%s %v: instantiated %+v, set-up saw %+v", spec.name, b, got, h)
				}
			}
			if each != nil {
				each(served{spec, b, detail, d})
			}
		}
		tick()
	}
	p.unit(ops, wall)
	return tmpls
}

// checkSample runs Template.Check — instantiation byte-identical to a
// from-scratch compile of the substituted source — on a seeded 1-in-16
// sample of the traffic, outside the timed region.
func (w *templateSweep) checkSample(p *pass, tmpls []*warp.Template) {
	if len(tmpls) != len(w.specs) {
		return // a template failed to build; already counted
	}
	r := newRand(w.seed, "template-check")
	for i, spec := range w.specs {
		for _, b := range spec.traffic {
			if r.Intn(16) != 0 {
				continue
			}
			if err := tmpls[i].Check(b); err != nil {
				p.fail("%s %v: %v", spec.name, b, err)
			}
		}
	}
}

func (w *templateSweep) measure(units int, tick func()) *pass {
	p := newPass()
	var tmpls []*warp.Template
	for rep := 0; rep < units; rep++ {
		tmpls = w.repetition(p, nil, tick, nil)
	}
	w.checkSample(p, tmpls)
	w.exact(p)
	return p
}

func (w *templateSweep) trace(units int, tr *tracer, tick func()) (*pass, layers) {
	p := newPass()
	l := layers{}
	var (
		parse, classBuild, instantiate, fallback []float64
		repWalls                                 []float64 // ms per repetition, through the templates
		symbolic                                 []served  // a few symbolically served bounds per template
		perTemplate                              = map[string]int{}
		tmpls                                    []*warp.Template
		stats                                    warp.TemplateStats
	)
	for rep := 0; rep < units; rep++ {
		var wall time.Duration
		tmpls = w.repetition(p, tr, tick, func(s served) {
			switch {
			case s.detail == nil:
				parse = append(parse, us(s.d))
				return
			case s.detail.ClassBuilt:
				classBuild = append(classBuild, ms(s.d))
			case s.detail.Symbolic:
				instantiate = append(instantiate, us(s.d))
				if rep == 0 && perTemplate[s.spec.name] < 4 {
					perTemplate[s.spec.name]++
					symbolic = append(symbolic, s)
				}
			default:
				fallback = append(fallback, ms(s.d))
			}
			wall += s.d
		})
		repWalls = append(repWalls, ms(wall))
		for _, tmpl := range tmpls {
			st := tmpl.Stats()
			stats.Instantiations += st.Instantiations
			stats.Fallbacks += st.Fallbacks
			stats.ClassBuilds += st.ClassBuilds
			stats.ProbeCompiles += st.ProbeCompiles
		}
	}
	w.checkSample(p, tmpls)
	w.exact(p)

	reps := float64(units)
	l["symbolic.template_parse_us"] = median(parse)
	l["symbolic.class_build_ms"] = median(classBuild)
	l["symbolic.instantiate_us"] = median(instantiate)
	l["symbolic.fallback_ms"] = median(fallback)
	if n := stats.Instantiations + stats.Fallbacks; n > 0 {
		l["symbolic.fallback_ratio"] = float64(stats.Fallbacks) / float64(n)
	}
	// Counts are per repetition, so that they do not scale with -seconds.
	l["symbolic.class_builds"] = float64(stats.ClassBuilds) / reps
	l["symbolic.probe_compiles"] = float64(stats.ProbeCompiles) / reps
	l["symbolic.instantiations"] = float64(stats.Instantiations) / reps

	// What instantiation saves: a cold concrete compile of the same
	// bounds against the instantiation that served them.
	var concrete []float64
	for _, s := range symbolic {
		src := s.spec.fam.concrete(s.b)
		d := tr.timed("warp.Compile", nil, func(*obs.Span) {
			if _, err := warp.Compile(src, s.spec.opts); err != nil {
				p.fail("%s %v: concrete compile: %v", s.spec.name, s.b, err)
			}
		})
		concrete = append(concrete, us(d))
	}
	if l["symbolic.instantiate_us"] > 0 {
		l["symbolic.speedup_vs_concrete"] = median(concrete) / l["symbolic.instantiate_us"]
	}

	// What a concrete cache already delivers: the same repetition through
	// warp.Compile behind a plain map, against the templates.
	var cached []float64
	for rep := 0; rep < 3; rep++ {
		var wall time.Duration
		for _, spec := range w.specs {
			cache := map[string]*warp.Program{}
			for _, b := range spec.traffic {
				start := time.Now()
				key := b.String()
				if _, ok := cache[key]; !ok {
					prog, err := warp.Compile(spec.fam.concrete(b), spec.opts)
					if err != nil {
						p.fail("%s %v: concrete compile: %v", spec.name, b, err)
					}
					cache[key] = prog
				}
				wall += time.Since(start)
			}
		}
		cached = append(cached, ms(wall))
	}
	if m := median(cached); m > 0 {
		l["symbolic.sweep_vs_concrete_ratio"] = median(repWalls) / m
	}
	return p, l
}
