package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"warp"
	"warp/internal/driver"
	"warp/internal/fabric"
	"warp/internal/obs"
	"warp/internal/workloads"
)

// farmArrays is the fabric width of the workload: one array per core of
// the 2-core reference host.
const farmArrays = 2

// fabricJob is one job kind of fabric-farm.
type fabricJob struct {
	name    string
	backend string
	kernel  string // tile kernel source
	prob    warp.Problem
	mm      *fabric.Matmul // exactly one of mm and cv is set
	cv      *fabric.Conv1D
	want    []float64 // the whole problem's Go reference

	prog  *warp.Program
	stats *warp.FabricStats // the set-up run's
}

// fabricFarm is the fabric-farm workload: one operation is one
// Program.RunPartitioned on two arrays; one unit is one sweep over the
// three job kinds.
type fabricFarm struct {
	seed int64
	jobs []*fabricJob
}

func newFabricFarm(seed int64) instance { return &fabricFarm{seed: seed} }

func (w *fabricFarm) close() {}

func (w *fabricFarm) setup() error {
	r := newRand(w.seed, "fabric-inputs")
	matmulJob := func(name, backend string, n int) *fabricJob {
		// Quarter-integers: the tiled run reassociates the k reduction, and
		// only exact arithmetic makes that bit-identical to the reference.
		a, b := quarters(r, n*n), quarters(r, n*n)
		return &fabricJob{name: name, backend: backend, kernel: workloads.Matmul(10),
			prob: warp.MatmulProblem(n, n, n, a, b), mm: &fabric.Matmul{M: n, K: n, N: n, A: a, B: b},
			want: workloads.MatmulRectRef(a, b, n, n, n)}
	}
	x, kernel := quarters(r, 8192), quarters(r, 9)
	w.jobs = []*fabricJob{
		matmulJob("mm80-fast", warp.BackendAuto, 80),
		{name: "conv8192-fast", backend: warp.BackendAuto, kernel: workloads.Conv1D(9, 512),
			prob: warp.Conv1DProblem(kernel, x), cv: &fabric.Conv1D{Kernel: kernel, X: x},
			want: workloads.Conv1DRef(x, kernel)},
		matmulJob("mm40-sim", warp.BackendSim, 40),
	}
	for _, j := range w.jobs {
		var err error
		if j.prog, err = warp.Compile(j.kernel, warp.Options{Pipeline: true, Verify: true}); err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		// First run: warms the kernel's fast plan and pins the job's
		// exact statistics.
		if j.stats, err = w.run(j); err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		want := "fast"
		if j.backend == warp.BackendSim {
			want = "sim"
		}
		if j.stats.Backend != want {
			return fmt.Errorf("%s: tiles ran on %q, want %q", j.name, j.stats.Backend, want)
		}
	}
	return nil
}

// run executes the job once and checks the stitched output against the
// whole problem's reference, element for element.
func (w *fabricFarm) run(j *fabricJob) (*warp.FabricStats, error) {
	out, stats, err := j.prog.RunPartitioned(warp.RunConfig{Arrays: farmArrays, Backend: j.backend}, j.prob)
	if err != nil {
		return nil, err
	}
	return stats, checkStitched(out, j.want)
}

func checkStitched(out map[string][]float64, want []float64) error {
	for _, got := range out { // the kernel's single out parameter
		if len(got) != len(want) {
			return fmt.Errorf("stitched %d words, the reference has %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("stitched[%d] = %v, the reference says %v", i, got[i], want[i])
			}
		}
	}
	if len(out) != 1 {
		return fmt.Errorf("%d stitched outputs, want 1", len(out))
	}
	return nil
}

func (w *fabricFarm) exact(p *pass) {
	for _, j := range w.jobs {
		p.simCycles += j.stats.AggregateCycles
		p.makespanCycles += j.stats.MakespanCycles
		m := j.prog.Metrics()
		p.ucodeWords += int64(m.CellInstrs + m.IUInstrs)
	}
}

func (w *fabricFarm) measure(units int, tick func()) *pass {
	p := newPass()
	for s := 0; s < units; s++ {
		var sweep time.Duration
		for _, j := range w.jobs {
			start := time.Now()
			stats, err := w.run(j)
			d := time.Since(start)
			p.sample(j.name, d)
			sweep += d
			switch {
			case err != nil:
				p.fail("%s: %v", j.name, err)
			case stats.AggregateCycles != j.stats.AggregateCycles || stats.MakespanCycles != j.stats.MakespanCycles || stats.Tiles != j.stats.Tiles:
				p.fail("%s: %d tiles, %d cycles, makespan %d; the first run had %d, %d, %d", j.name,
					stats.Tiles, stats.AggregateCycles, stats.MakespanCycles,
					j.stats.Tiles, j.stats.AggregateCycles, j.stats.MakespanCycles)
			}
		}
		p.unit(len(w.jobs), sweep)
		tick()
	}
	w.exact(p)
	return p
}

// tileProgram describes a compiled kernel to the planner, as
// warp.Program.RunPartitioned does.
func tileProgram(c *driver.Compiled) fabric.TileProgram {
	tp := fabric.TileProgram{Cells: c.Cells}
	for _, sym := range c.Info.HostSyms {
		prm := fabric.Param{Name: sym.Name, Size: sym.Type.Size()}
		if sym.Out {
			tp.Out = prm
		} else {
			tp.In = append(tp.In, prm)
		}
	}
	return tp
}

func (w *fabricFarm) trace(units int, tr *tracer, tick func()) (*pass, layers) {
	p := newPass()
	l := layers{}
	kernels := make([]*driver.Compiled, len(w.jobs))
	for i, j := range w.jobs {
		c, err := driver.Compile(j.kernel, driver.Options{Pipeline: true, Verify: true})
		if err != nil {
			p.fail("%s: %v", j.name, err)
			return p, l
		}
		kernels[i] = c
	}

	// farm runs one job through fabric.Run with a timed tile function and
	// returns the job wall, the summed tile wall and the fabric's stats.
	farm := func(j *fabricJob, c *driver.Compiled, pl *fabric.Plan, arrays int, root *obs.Span, tileOut [][]float64) (time.Duration, time.Duration, *fabric.Stats, []float64, error) {
		var mu sync.Mutex
		var tileWall time.Duration
		runTile := func(ctx context.Context, t fabric.Tile, in map[string][]float64) ([]float64, fabric.TileStats, error) {
			sp := tr.span("driver.RunWith", root)
			start := time.Now()
			out, stats, err := driver.RunWith(c, in, driver.RunOptions{Ctx: ctx, Backend: j.backend})
			d := time.Since(start)
			sp.End()
			if err != nil {
				return nil, fabric.TileStats{}, err
			}
			mu.Lock()
			tileWall += d
			if tileOut != nil {
				tileOut[t.ID] = out[pl.OutName()]
			}
			mu.Unlock()
			return out[pl.OutName()], fabric.TileStats{Cycles: stats.Cycles, Backend: stats.Backend,
				Decision: stats.Decision, Summary: stats.Obs.Summarize()}, nil
		}
		var out []float64
		var stats *fabric.Stats
		var err error
		wall := tr.timed("fabric.Run", root, func(*obs.Span) {
			out, stats, err = fabric.Run(context.Background(), pl, fabric.Config{Arrays: arrays}, runTile)
		})
		return wall, tileWall, stats, out, err
	}

	var planS, stageS, tileS, assembleS, efficiency []float64 // per sweep
	rows := map[string][]float64{}
	for s := 0; s < units; s++ {
		var plan, stage, tiles, assemble, jobWall, sweep time.Duration
		for i, j := range w.jobs {
			c := kernels[i]
			root := tr.span("op:partitioned/"+j.name, nil)
			start := time.Now()
			var pl *fabric.Plan
			var err error
			plan += tr.timed("fabric.Plan", root, func(*obs.Span) {
				if j.mm != nil {
					pl, err = fabric.PlanMatmul(*j.mm, tileProgram(c), fabric.DefaultLimits(c.Cells))
				} else {
					pl, err = fabric.PlanConv1D(*j.cv, tileProgram(c), fabric.DefaultLimits(c.Cells))
				}
			})
			if err != nil {
				root.End()
				p.fail("%s: plan: %v", j.name, err)
				continue
			}
			tileOut := make([][]float64, len(pl.Tiles))
			wall, tileWall, stats, out, err := farm(j, c, pl, farmArrays, root, tileOut)
			root.End()
			total := time.Since(start)
			p.sample(j.name, total)
			sweep += total
			rows[j.name] = append(rows[j.name], ms(wall))
			tiles += tileWall
			jobWall += wall
			switch {
			case err != nil:
				p.fail("%s: %v", j.name, err)
				continue
			case stats.AggregateCycles != j.stats.AggregateCycles || stats.MakespanCycles != j.stats.MakespanCycles:
				p.fail("%s: replay ran %d cycles, makespan %d; the first run had %d, %d", j.name,
					stats.AggregateCycles, stats.MakespanCycles, j.stats.AggregateCycles, j.stats.MakespanCycles)
			default:
				if err := checkStitched(map[string][]float64{pl.OutName(): out}, j.want); err != nil {
					p.fail("%s: replay: %v", j.name, err)
				}
			}
			// Staging and stitching happen inside fabric.Run, on its own
			// goroutines; time the same calls on their own.
			stage += tr.timed("fabric.Plan.Inputs", nil, func(*obs.Span) {
				for _, t := range pl.Tiles {
					pl.Inputs(t)
				}
			})
			assemble += tr.timed("fabric.Plan.Assemble", nil, func(*obs.Span) {
				if _, err := pl.Assemble(tileOut); err != nil {
					p.fail("%s: assemble: %v", j.name, err)
				}
			})
			if s == 0 {
				l["fabric.tiles"] += float64(stats.Tiles)
				l["fabric.staged_words"] += float64(stats.StagedWords)
				l["fabric.agg_cycles"] += float64(stats.AggregateCycles)
				l["fabric.retried"] += float64(stats.Retried)
			}
		}
		planS, stageS = append(planS, us(plan)), append(stageS, us(stage))
		tileS, assembleS = append(tileS, ms(tiles)), append(assembleS, us(assemble))
		if jobWall > 0 {
			efficiency = append(efficiency, float64(tiles)/(farmArrays*float64(jobWall)))
		}
		p.unit(len(w.jobs), sweep)
		tick()
	}
	w.exact(p)
	l["fabric.plan_us"] = median(planS)
	l["fabric.stage_us"] = median(stageS)
	l["fabric.tile_run_ms"] = median(tileS)
	l["fabric.assemble_us"] = median(assembleS)
	l["fabric.farm_efficiency"] = median(efficiency)
	for _, j := range w.jobs {
		l["fabric.p50_ms."+j.name] = median(rows[j.name])
	}

	// Does the farm scale?  The same job on one array against two.
	for i, metric := range map[int]string{0: "fabric.wall_scaling_fast", 2: "fabric.wall_scaling_sim"} {
		j, c := w.jobs[i], kernels[i]
		var pl *fabric.Plan
		var err error
		if pl, err = fabric.PlanMatmul(*j.mm, tileProgram(c), fabric.DefaultLimits(c.Cells)); err != nil {
			p.fail("%s: plan: %v", j.name, err)
			continue
		}
		var one []float64
		for s := 0; s < sideSweeps; s++ {
			wall, _, _, _, err := farm(j, c, pl, 1, nil, nil)
			if err != nil {
				p.fail("%s: one array: %v", j.name, err)
			}
			one = append(one, ms(wall))
		}
		if two := median(rows[j.name]); two > 0 {
			l[metric] = median(one) / two
		}
	}
	return p, l
}
