package driver

import (
	"testing"

	"warp/internal/verify"
	"warp/internal/workloads"
)

// p8 are the benchmark's eight compile-cold programs, at their sizes and
// with their options.
var p8 = []struct {
	name     string
	src      string
	pipeline bool
}{
	{"polynomial", workloads.Polynomial(10, 100), true},
	{"conv1d", workloads.Conv1D(9, 2048), true},
	{"binop", workloads.Binop(512, 512), true},
	{"colorseg", workloads.ColorSeg(512, 512, 10), true},
	{"mandelbrot", workloads.Mandelbrot(32*32, 4), true},
	{"fft1024", workloads.FFT(1024), true},
	{"matmul32", workloads.Matmul(32), true},
	{"matmul32-plain", workloads.Matmul(32), false},
}

// BenchmarkVerify times the verifier alone on each P8 program's compiled
// output: `go test -run '^$' -bench Verify/fft1024 ./internal/driver`.
func BenchmarkVerify(b *testing.B) {
	for _, p := range p8 {
		c, err := Compile(p.src, Options{Pipeline: p.pipeline})
		if err != nil {
			b.Fatal(err)
		}
		prog := verifyProgram(c)
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := verify.Verify(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
