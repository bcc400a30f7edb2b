// Skewlab: a tour of the compile-time synchronization analysis — the
// paper's core contribution.  It compiles a small program, extracts the
// per-channel timed I/O programs, shows every I/O statement's five
// characteristic vectors and closed-form timing function τ(n)
// (§6.2.1), and compares the exact minimum skew against the paper's
// cheap pairwise bound and the resulting queue-occupancy proof.
package main

import (
	"fmt"
	"log"

	"warp"
	"warp/internal/interp"
	"warp/internal/paper"
	"warp/internal/skew"
)

const src = `
/* A two-phase cell: absorb a tile into memory, then stream products. */
module lab (xs in, ys out)
float xs[24];
float ys[24];
cellprogram (cid : 0 : 3)
begin
    function f
    begin
        float v;
        float tile[8];
        int i, j, k;
        for i := 0 to 7 do begin
            receive (L, X, v, xs[i]);
            tile[i] := v;
            send (R, X, v);
        end;
        for j := 0 to 7 do begin
            receive (L, X, v, xs[8+j]);
            send (R, X, v * tile[j], ys[j]);
        end;
        for k := 0 to 7 do begin
            receive (L, X, v, xs[16+k]);
            send (R, X, v + tile[7-k], ys[8+k]);
        end;
    end
    call f;
end
`

func main() {
	prog, err := warp.Compile(src, warp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled for %d cells; chosen skew: %d cycles\n\n", prog.Cells(), prog.Skew())

	x := prog.ChannelTiming('X')
	fmt.Println("characteristic vectors of every I/O statement on channel X:")
	for _, kind := range []skew.Kind{skew.Input, skew.Output} {
		for _, v := range paper.Statements(x, kind) {
			fmt.Printf("  %s\n", v)
		}
	}

	fmt.Println("\nclosed-form timing functions (Table 6-4 style):")
	for _, kind := range []skew.Kind{skew.Input, skew.Output} {
		for _, v := range paper.Statements(x, kind) {
			sym := paper.NewTimingFunc(v).Symbolic()
			kindName := "I"
			if kind == skew.Output {
				kindName = "O"
			}
			fmt.Printf("  %s(%d): τ(n) = %-30s [%s]\n", kindName, v.ID, sym, sym.DomainString())
		}
	}

	exact, err := paper.MinSkewExact(x, x)
	if err != nil {
		log.Fatal(err)
	}
	bound, pairs, err := paper.MinSkewBound(x, x, paper.BoundPaper)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nminimum skew: exact %d; pairwise bound %s over %d statement pairs\n",
		exact, bound, len(pairs))

	occ, err := paper.MaxOccupancy(x, x, prog.Skew())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proven queue occupancy at the chosen skew: %d of 128 words\n", occ)
	if _, err := paper.MaxOccupancy(x, x, exact-1); err != nil {
		fmt.Printf("skew %d (one below minimum) underflows, as it must: %v\n", exact-1, err)
	}

	vs, err := paper.VariableSkew(x, x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthe §6.2.1 variable-skew alternative:\n%s", vs.Describe())

	// Finally run the thing and make sure the machine agrees.
	inputs := map[string][]float64{"xs": make([]float64, 24)}
	for i := range inputs["xs"] {
		inputs["xs"][i] = float64(i) / 4
	}
	out, stats, err := prog.Run(inputs)
	if err != nil {
		log.Fatal(err)
	}
	want, err := interp.RunSource(src, inputs)
	if err != nil {
		log.Fatal(err)
	}
	for i := range want["ys"] {
		if out["ys"][i] != want["ys"][i] {
			log.Fatalf("ys[%d]: simulator %v vs interpreter %v", i, out["ys"][i], want["ys"][i])
		}
	}
	fmt.Printf("\nsimulated %d cycles; peak data queue %d; outputs match the interpreter: OK\n",
		stats.Cycles, stats.MaxQueue)
}
