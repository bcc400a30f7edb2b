package driver

import (
	"sync"
	"time"

	"warp/internal/fastexec"
	"warp/internal/interp"
	"warp/internal/mcode"
	"warp/internal/sim"
	"warp/internal/telemetry"
	"warp/internal/workloads"
)

// fallbackModel is used when the calibration micro-benchmark cannot run
// (it never should on a working build); the constants are rough medians
// observed across development hosts, good enough to keep decision
// records populated.
var fallbackModel = telemetry.CostModel{SimNSPerCellCycle: 20, FastNSPerOp: 10}

var (
	costOnce  sync.Once
	costModel telemetry.CostModel
)

// CostModelForHost returns the backend cost model calibrated for this
// host, running a small self-benchmark on first call (a few
// milliseconds, once per process): a 10-cell polynomial workload is
// compiled and executed on both backends, and the per-unit constants
// are derived from the best observed wall times.  The calibration runs
// the executors directly — never through RunWith — so recording
// decisions cannot recurse into calibration.
func CostModelForHost() telemetry.CostModel {
	costOnce.Do(calibrate)
	return costModel
}

// ModeledCycles returns the closed-form machine-cycle count of one run
// of the compiled program: the IU lead, the skew ramp across the array,
// and one cell's execution time.  This is the simulator-side cost input
// of the decision audit; on deterministic workloads it equals the cycle
// count the simulator reports.
func (c *Compiled) ModeledCycles() int64 {
	c.costOnce.Do(func() {
		c.modeledCycles = (c.IUGen.Prologue + 1) + int64(c.Cells-1)*c.Skew + c.Cell.Cycles()
		c.runOps = mcode.CountCell(c.Cell).Ops * int64(c.Cells)
	})
	return c.modeledCycles
}

func calibrate() {
	costModel = fallbackModel
	c, err := Compile(workloads.Polynomial(10, 200), Options{Verify: true})
	if err != nil {
		return
	}
	plan, err := c.FastPlan()
	if err != nil {
		return
	}
	inputs := map[string][]float64{}
	for _, sym := range c.Info.HostSyms {
		if sym.Out {
			continue
		}
		inputs[sym.Name] = make([]float64, sym.Type.Size())
	}
	hostMem, err := interp.BuildHostMem(c.Info, inputs)
	if err != nil {
		return
	}
	simNS := measureNS(func() error {
		mem := append([]float64(nil), hostMem...)
		_, err := sim.Run(sim.Config{
			Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host,
			Skew: c.Skew, Lead: c.IUGen.Prologue + 1, HostMem: mem,
		})
		return err
	})
	fastNS := measureNS(func() error {
		mem := append([]float64(nil), hostMem...)
		_, err := plan.Execute(mem, fastexec.ExecConfig{})
		return err
	})
	if simNS <= 0 || fastNS <= 0 {
		return
	}
	cells := int64(c.Cells)
	m := telemetry.CostModel{
		SimNSPerCellCycle: float64(simNS) / float64(c.ModeledCycles()*cells),
		FastNSPerOp:       float64(fastNS) / float64(int64(plan.Ops())*cells),
	}
	if m.SimNSPerCellCycle > 0 && m.FastNSPerOp > 0 {
		costModel = m
	}
}

// measureNS runs f a handful of times and returns the best per-run wall
// time in nanoseconds — the minimum is the standard noise-resistant
// estimator for a deterministic workload.  A failing f yields 0.
func measureNS(f func() error) int64 {
	if f() != nil { // warm-up: page in code and data
		return 0
	}
	var best int64
	deadline := time.Now().Add(10 * time.Millisecond)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if f() != nil {
			return 0
		}
		d := time.Since(start).Nanoseconds()
		if best == 0 || d < best {
			best = d
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return best
}
