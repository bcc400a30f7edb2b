// Command dumpw2 writes the W2 source of each example workload to a
// directory, one <name>.w2 per program, and each ${...} template
// workload as <name>-sym.w2 (compile those with `w2c -bounds`).  The
// examples under examples/ embed their sources as Go strings (they are
// parametric generators), so CI uses this dump to run `w2c -verify`
// over every example program as a plain file — see
// scripts/verify-programs.sh.
//
// Usage: go run ./scripts/dumpw2 [-dir w2out]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"warp/internal/workloads"
)

func main() {
	dir := flag.String("dir", "w2out", "output directory")
	flag.Parse()

	// Sizes match what the examples and tests exercise: big enough to
	// have real loop structure, small enough that CI verification of
	// the whole set stays in seconds.
	programs := map[string]string{
		"polynomial": workloads.Polynomial(10, 100),
		"conv1d":     workloads.Conv1D(9, 64),
		"binop":      workloads.Binop(64, 64),
		"colorseg":   workloads.ColorSeg(32, 32, 10),
		"mandelbrot": workloads.Mandelbrot(64, 4),
		"matmul":     workloads.Matmul(8),
		"fft":        workloads.FFT(64),

		"matmul-sym":     workloads.MatmulSym(),
		"conv1d-sym":     workloads.Conv1DSym(),
		"polynomial-sym": workloads.PolynomialSym(),
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "dumpw2: %v\n", err)
		os.Exit(1)
	}
	for name, src := range programs {
		path := filepath.Join(*dir, name+".w2")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dumpw2: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(path)
	}
}
