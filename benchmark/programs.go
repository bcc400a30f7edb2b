package main

import (
	"fmt"
	"math"
	"math/rand"

	"warp/internal/workloads"
)

// program is one of the eight benchmark programs (P8): the paper's
// Table 7-1 set plus the FFT and the two matmul schedules.
type program struct {
	name     string
	pipeline bool
	// src is the source compile-cold compiles; execSrc is what exec-*
	// run.  They differ only for colorseg: the paper's 512×512 image
	// takes 1.9 s to simulate, so it is compiled at full size and
	// executed at 128×128.
	src, execSrc string
	// inputs draws the execSrc-sized input arrays.
	inputs func(r *rand.Rand) map[string][]float64
	// ref computes the expected output array from the inputs with the
	// plain Go reference of internal/workloads, and names the output
	// parameter it corresponds to and the tolerance of the comparison.
	ref func(in map[string][]float64) expectation
}

// expectation is a reference output: the first len(want) words of the
// named output parameter must match want within tol.
type expectation struct {
	param string
	want  []float64
	tol   func(got, want float64) bool
}

// relTol is the comparison of the repository's own end-to-end tests
// (internal/driver.approxEqual): 1e-9 relative, floored at absolute.
func relTol(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
}

// check compares one run's outputs with the expectation.
func (e expectation) check(out map[string][]float64) error {
	got := out[e.param]
	if len(got) < len(e.want) {
		return fmt.Errorf("output %q has %d words, reference has %d", e.param, len(got), len(e.want))
	}
	for i, w := range e.want {
		if !e.tol(got[i], w) {
			return fmt.Errorf("output %s[%d] = %v, reference says %v", e.param, i, got[i], w)
		}
	}
	return nil
}

// bitIdentical reports whether two output sets agree in every bit.
func bitIdentical(a, b map[string][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d outputs against %d", len(a), len(b))
	}
	for name, av := range a {
		bv, ok := b[name]
		if !ok || len(av) != len(bv) {
			return fmt.Errorf("output %q: %d words against %d", name, len(av), len(bv))
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return fmt.Errorf("output %s[%d]: %v against %v", name, i, av[i], bv[i])
			}
		}
	}
	return nil
}

const (
	colorsegCells = 10
	fftPoints     = 1024
	matmulN       = 32
	mandelIters   = 4
)

// programs returns the P8 in sweep order.
func programs() []program {
	poly := program{
		name: "polynomial", pipeline: true, src: workloads.Polynomial(10, 100),
		inputs: func(r *rand.Rand) map[string][]float64 {
			return map[string][]float64{"z": uniform(r, 100, -1, 1), "c": uniform(r, 10, -1, 1)}
		},
		ref: func(in map[string][]float64) expectation {
			return expectation{"results", workloads.PolynomialRef(in["z"], in["c"]), relTol}
		},
	}
	conv := program{
		name: "conv1d", pipeline: true, src: workloads.Conv1D(9, 2048),
		inputs: func(r *rand.Rand) map[string][]float64 {
			return map[string][]float64{"x": uniform(r, 2048, -1, 1), "w": uniform(r, 9, -1, 1)}
		},
		ref: func(in map[string][]float64) expectation {
			return expectation{"results", workloads.Conv1DRef(in["x"], in["w"]), relTol}
		},
	}
	binop := program{
		name: "binop", pipeline: true, src: workloads.Binop(512, 512),
		inputs: func(r *rand.Rand) map[string][]float64 {
			return map[string][]float64{"a": uniform(r, 512*512, 0, 255), "b": uniform(r, 512*512, 0, 255)}
		},
		ref: func(in map[string][]float64) expectation {
			return expectation{"res", workloads.BinopRef(in["a"], in["b"]), relTol}
		},
	}
	colorseg := program{
		name: "colorseg", pipeline: true,
		src:     workloads.ColorSeg(512, 512, colorsegCells),
		execSrc: workloads.ColorSeg(128, 128, colorsegCells),
		inputs: func(r *rand.Rand) map[string][]float64 {
			refs := make([]float64, 4*colorsegCells)
			for c := 0; c < colorsegCells; c++ {
				refs[4*c], refs[4*c+1], refs[4*c+2] = r.Float64()*10, r.Float64()*10, r.Float64()*10
				refs[4*c+3] = float64(c)
			}
			return map[string][]float64{"refs": refs, "image": uniform(r, 3*128*128, 0, 10)}
		},
		ref: func(in map[string][]float64) expectation {
			return expectation{"classes", workloads.ColorSegRef(in["refs"], in["image"]), relTol}
		},
	}
	mandel := program{
		name: "mandelbrot", pipeline: true, src: workloads.Mandelbrot(32*32, mandelIters),
		inputs: func(r *rand.Rand) map[string][]float64 {
			return map[string][]float64{"cxs": uniform(r, 32*32, -2, 1), "cys": uniform(r, 32*32, -1.5, 1.5)}
		},
		ref: func(in map[string][]float64) expectation {
			return expectation{"res", workloads.MandelbrotRef(in["cxs"], in["cys"], mandelIters), relTol}
		},
	}
	fft := program{
		// Pipelining is requested and backs off: at 1024 points the
		// overlapped schedule outruns the IU, so this row also times the
		// driver's retry with the plain schedule.
		name: "fft1024", pipeline: true, src: workloads.FFT(fftPoints),
		inputs: func(r *rand.Rand) map[string][]float64 {
			return map[string][]float64{"twid": workloads.FFTTwiddles(fftPoints), "x": uniform(r, 2*fftPoints, -1, 1)}
		},
		ref: func(in map[string][]float64) expectation {
			// The direct DFT sums in another order; the repository's FFT
			// test allows 1e-6·n absolute.
			return expectation{"y", workloads.FFTRef(in["x"]), func(a, b float64) bool {
				return math.Abs(a-b) <= 1e-6*fftPoints
			}}
		},
	}
	matmul := func(name string, pipeline bool) program {
		return program{
			name: name, pipeline: pipeline, src: workloads.Matmul(matmulN),
			inputs: func(r *rand.Rand) map[string][]float64 {
				return map[string][]float64{"a": uniform(r, matmulN*matmulN, -1, 1), "bmat": uniform(r, matmulN*matmulN, -1, 1)}
			},
			ref: func(in map[string][]float64) expectation {
				return expectation{"c", workloads.MatmulRef(in["a"], in["bmat"], matmulN), relTol}
			},
		}
	}
	ps := []program{poly, conv, binop, colorseg, mandel, fft, matmul("matmul32", true), matmul("matmul32-plain", false)}
	for i := range ps {
		if ps[i].execSrc == "" {
			ps[i].execSrc = ps[i].src
		}
	}
	return ps
}
