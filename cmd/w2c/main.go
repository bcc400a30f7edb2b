// Command w2c compiles a W2 source file for the Warp array and reports
// the generated microcode and the inter-cell scheduling analysis.
//
// Usage:
//
//	w2c [-cell] [-iu] [-noopt] [-pipeline] [-cells n]
//	    [-bounds n=32[,k=5...]] program.w2
//
// Without listing flags it prints the compile report: microcode sizes,
// minimum skew, proven queue occupancy, IU resource usage and the
// verifier's report.
//
// With -bounds the source is a ${...}-parameterized template: each
// placeholder is replaced by its value at the bound vector and the
// resulting W2 text is compiled.
//
// The static microcode verifier runs as every compile's final phase.  A
// verification failure prints one structured diagnostic per violated
// invariant (cell, instruction index, invariant name) and exits with
// status 3, distinguishing "the compiler produced provably wrong
// microcode" from ordinary compile errors (status 1).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"warp"
	"warp/internal/verify"
	"warp/internal/w2"
)

func main() {
	var (
		showCell = flag.Bool("cell", false, "print the cell microcode listing")
		showIU   = flag.Bool("iu", false, "print the IU microcode listing")
		noopt    = flag.Bool("noopt", false, "disable the local optimizer")
		pipeline = flag.Bool("pipeline", false, "software pipeline innermost loops")
		cells    = flag.Int("cells", 0, "override the array size")
		bounds   = warp.BoundsFlag()
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: w2c [flags] program.w2")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := warp.Options{
		NoOptimize: *noopt,
		Pipeline:   *pipeline,
		Cells:      *cells,
	}
	var prog *warp.Program
	if len(bounds) > 0 {
		var tmpl *warp.Template
		if tmpl, err = warp.CompileTemplate(string(src), opts); err == nil {
			prog, err = tmpl.Program(bounds)
		}
	} else {
		prog, err = warp.Compile(string(src), opts)
	}
	if err != nil {
		var verr *verify.Error
		if errors.As(err, &verr) {
			fmt.Fprintf(os.Stderr, "%s: verification failed: %d invariant violation(s)\n",
				flag.Arg(0), len(verr.Diags))
			for _, d := range verr.Diags {
				fmt.Fprintf(os.Stderr, "  %s\n", d)
			}
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m := prog.Metrics()
	fmt.Printf("module %s: %d cells, %d W2 lines\n", m.Name, m.Cells, m.W2Lines)
	fmt.Printf("  cell ucode: %4d instructions (%d cycles per cell)\n", m.CellInstrs, m.CellCycles)
	fmt.Printf("  IU ucode:   %4d instructions, %d address registers, %d table words\n",
		m.IUInstrs, m.IUAddrRegs, m.IUTable)
	fmt.Printf("  skew: %d cycles between cells (structural search, %d points evaluated); queue occupancy X=%d Y=%d (of 128)\n",
		m.Skew, prog.Sched().Totals().SkewOps, m.QueueOccX, m.QueueOccY)
	fmt.Printf("  optimizer: %d transformations; %d loops software pipelined\n",
		m.OptCount, m.Pipelined)
	fmt.Printf("  compile time: %v\n", m.CompileTime)
	// Every occupancy is the exact peak; anything else a queue was proven
	// by would be named here (scripts/verify-programs.sh fails on it).
	rep, proofs := prog.Verified(), "exact"
	for _, occ := range []verify.Occ{rep.Data[w2.ChanX], rep.Data[w2.ChanY], rep.Adr, rep.Sig} {
		if occ.Method != "" && occ.Method != "exact" {
			proofs = occ.Method
		}
	}
	fmt.Printf("  verified: %d propositions proven; peak occupancy X=%d Y=%d Adr=%d Sig=%d; proofs %s\n",
		rep.Checked, rep.Data[w2.ChanX].Max, rep.Data[w2.ChanY].Max, rep.Adr.Max, rep.Sig.Max, proofs)
	if *showCell {
		fmt.Println("\ncell microcode:")
		fmt.Print(prog.CellListing())
	}
	if *showIU {
		fmt.Println("\nIU microcode:")
		fmt.Print(prog.IUListing())
	}
}
