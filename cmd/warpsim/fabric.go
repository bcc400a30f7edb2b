package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"warp"
	"warp/internal/interp"
	"warp/internal/workloads"
)

// fabricSpec is the JSON problem description a .json program argument
// carries: an oversized workload the fabric partitions into tiles of a
// freshly compiled array kernel.
type fabricSpec struct {
	Workload string `json:"workload"` // "matmul" or "conv1d"

	// Matmul: C = A×B with A m×k and B k×n, tiled into tile×tile
	// blocks on a tile-cell kernel.
	M    int `json:"m"`
	K    int `json:"k"`
	N    int `json:"n"`
	Tile int `json:"tile"`

	// Conv1D: nx signal points through a kernel-weight filter, tiled
	// into window-point slices on a kernel-cell array.
	NX     int `json:"nx"`
	Kernel int `json:"kernel"`
	Window int `json:"window"`

	Seed int64 `json:"seed"`
}

// loadFabricSpec returns the parsed spec when the argument is a .json
// file, nil when it is not (a W2 source or builtin name).
func loadFabricSpec(arg string) (*fabricSpec, error) {
	if filepath.Ext(arg) != ".json" {
		return nil, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var spec fabricSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("parsing problem spec %s: %w", arg, err)
	}
	if spec.Workload == "" {
		return nil, fmt.Errorf("%s: problem spec has no \"workload\" field", arg)
	}
	return &spec, nil
}

// runFabric compiles the tile kernel the spec names, partitions the
// oversized problem, farms the tiles across -arrays simulated arrays
// and reports the fabric statistics.
func runFabric(spec *fabricSpec, o *options) {
	seed := spec.Seed
	if seed == 0 {
		seed = o.seed
	}

	var (
		kernelSrc string // the array-sized tile kernel
		oracleSrc string // the full, un-partitioned problem for -check
		prob      warp.Problem
		inputs    map[string][]float64 // oracle inputs
		outName   string
		validLen  int // length of the valid oracle prefix to compare
	)
	switch spec.Workload {
	case "matmul":
		if spec.M < 1 || spec.K < 1 || spec.N < 1 || spec.Tile < 2 {
			fail(fmt.Errorf("matmul spec needs m, k, n >= 1 and tile >= 2 (got %dx%dx%d tile %d)",
				spec.M, spec.K, spec.N, spec.Tile))
		}
		a, b := workloads.LargeMatmulData(spec.M, spec.K, spec.N, seed)
		kernelSrc = workloads.Matmul(spec.Tile)
		oracleSrc = workloads.MatmulRect(spec.M, spec.K, spec.N)
		prob = warp.MatmulProblem(spec.M, spec.K, spec.N, a, b)
		inputs = map[string][]float64{"a": a, "bmat": b}
		outName, validLen = "c", spec.M*spec.N
	case "conv1d":
		if spec.Kernel < 2 || spec.Window <= spec.Kernel || spec.NX < spec.Window {
			fail(fmt.Errorf("conv1d spec needs kernel >= 2, window > kernel, nx >= window (got kernel %d window %d nx %d)",
				spec.Kernel, spec.Window, spec.NX))
		}
		x, w := workloads.LargeConv1DData(spec.NX, spec.Kernel, seed)
		kernelSrc = workloads.Conv1D(spec.Kernel, spec.Window)
		oracleSrc = workloads.Conv1D(spec.Kernel, spec.NX)
		prob = warp.Conv1DProblem(w, x)
		inputs = map[string][]float64{"x": x, "w": w}
		outName, validLen = "results", spec.NX-spec.Kernel+1
	default:
		fail(fmt.Errorf("unknown workload %q (want matmul or conv1d)", spec.Workload))
	}

	prog := o.compile(concrete(kernelSrc), warp.Options{Pipeline: o.pipeline})
	runCfg, tick := o.runConfig()
	runCfg.Arrays, runCfg.TileDeadline, runCfg.TileRetries = o.arrays, o.tileDL, o.tileRetry
	out, fs, err := prog.RunPartitioned(runCfg, prob)
	tick.Stop()
	if err != nil {
		var te *warp.TileError
		if errors.As(err, &te) {
			fmt.Fprintf(os.Stderr, "warpsim: tile %d failed after %d attempt(s): %v\n",
				te.Tile, te.Attempts, te.Err)
		}
		failRun(err, o.maxCycles)
	}
	m := prog.Metrics()
	fmt.Printf("fabric %s: %d tiles on %d arrays (%d-cell kernel, skew %d, %s backend)\n",
		spec.Workload, fs.Tiles, fs.Arrays, m.Cells, m.Skew, fs.Backend)
	fmt.Printf("dispatched %d, retried %d, failed %d; %d batches, %d fell back to tile-by-tile; staged %d host words\n",
		fs.Dispatched, fs.Retried, fs.Failed, fs.Batches, fs.BatchFallbacks, fs.StagedWords)
	fmt.Printf("aggregate %d cycles, makespan %d cycles, modeled speedup %.2fx, wall %s\n",
		fs.AggregateCycles, fs.MakespanCycles, fs.Speedup, time.Duration(fs.WallNS).Round(time.Microsecond))
	if o.stats {
		fmt.Print(decisionLine(fs.Decision))
	}

	o.writeProfile(fs.Source, prog.SchedReport())
	o.writeOutputs(out)

	if o.check {
		want, err := interp.RunSource(oracleSrc, inputs)
		if err != nil {
			fail(fmt.Errorf("interpreter: %w", err))
		}
		got := out[outName]
		if len(got) < validLen {
			fail(fmt.Errorf("stitched output has %d elements, oracle needs %d", len(got), validLen))
		}
		for i := 0; i < validLen; i++ {
			if got[i] != want[outName][i] {
				fail(fmt.Errorf("mismatch: %s[%d] = %v, full-problem interpreter says %v",
					outName, i, got[i], want[outName][i]))
			}
		}
		fmt.Printf("check: all %d stitched outputs element-exact against the full-problem interpreter\n", validLen)
	}
}
