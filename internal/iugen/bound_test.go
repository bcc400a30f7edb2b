package iugen

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"warp/internal/cellgen"
	"warp/internal/ir"
	"warp/internal/mcode"
	"warp/internal/opt"
	"warp/internal/w2"
	"warp/internal/workloads"
)

// boundCase is one program of the bound's corpus.
type boundCase struct{ name, src string }

// boundCorpus is the benchmark's eight programs (binop and colorseg at
// 64², at their paper sizes among the paper's configurations), the
// testdata programs,
// the paper's configurations, FFT from 16 to 2048 points (2048 needs
// more cell memory than a cell has, and the front end refuses it) and
// 600 random programs.
func boundCorpus(t *testing.T) []boundCase {
	cases := []boundCase{
		{"polynomial", workloads.Polynomial(10, 100)},
		{"conv1d", workloads.Conv1D(9, 2048)},
		{"binop", workloads.Binop(64, 64)},
		{"colorseg", workloads.ColorSeg(64, 64, 10)},
		{"mandelbrot", workloads.Mandelbrot(32*32, 4)},
		{"matmul32", workloads.Matmul(32)},
		{"PolynomialPaper", workloads.PolynomialPaper()},
		{"Conv1DPaper", workloads.Conv1DPaper()},
		{"BinopPaper", workloads.BinopPaper()},
		{"ColorSegPaper", workloads.ColorSegPaper()},
		{"MandelbrotPaper", workloads.MandelbrotPaper()},
		{"FFTPaper", workloads.FFTPaper()},
	}
	for n := 16; n <= 2048; n *= 2 {
		cases = append(cases, boundCase{fmt.Sprintf("FFT(%d)", n), workloads.FFT(n)})
	}
	files, err := filepath.Glob("../../testdata/*.w2")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata programs: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, boundCase{f, string(src)})
	}
	rng := rand.New(rand.NewSource(36))
	for i := range 600 {
		src, _ := workloads.RandomProgram(rng)
		cases = append(cases, boundCase{fmt.Sprintf("random %d", i), src})
	}
	return cases
}

// cellProgram runs the front end and the cell code generator; nil when
// either refuses the program.
func cellProgram(src string, pipeline bool) *mcode.CellProgram {
	m, err := w2.Parse(src)
	if err != nil {
		return nil
	}
	info, err := w2.Analyze(m)
	if err != nil {
		return nil
	}
	p, err := ir.Build(info)
	if err != nil {
		return nil
	}
	opt.Optimize(p)
	cg, err := cellgen.Generate(p, cellgen.Options{Pipeline: pipeline})
	if err != nil {
		return nil
	}
	return cg.Cell
}

// TestTableBoundIsSound: the early refusal's lower bound never exceeds
// the table planExprs leaves — every spilled site's reads, unsaturated —
// on the whole corpus with pipelining on and off, and it exceeds the
// IU's table on the pipelined 1024-point FFT, which it is there to
// refuse.  Where the bound applies the pools are empty, so the numbering
// after trim spills nothing more and the table compared is the post-trim
// one.
func TestTableBoundIsSound(t *testing.T) {
	applied, compared := 0, 0
	for _, tc := range boundCorpus(t) {
		for _, pipeline := range []bool{false, true} {
			cell := cellProgram(tc.src, pipeline)
			if cell == nil {
				continue
			}
			if _, err := mcode.CountCell(cell); err != nil {
				continue
			}
			g := &genState{top: &iuBody{m: 1}, bodies: 1}
			g.mirrorItems(cell.Items, g.top)
			if g.err != nil {
				continue
			}
			bound := g.tableBound()
			exprs := g.groupExprs()
			_, _, err := g.planExprs(exprs)
			if err != nil && !errors.Is(err, errTableFull) {
				t.Fatalf("%s (pipeline %v): %v", tc.name, pipeline, err)
			}
			var exact int64
			for i := range g.sites {
				if s := &g.sites[i]; s.e.spilled {
					exact += siteReads(s)
				}
			}
			compared++
			if bound > 0 {
				applied++
			}
			if bound > exact {
				t.Errorf("%s (pipeline %v): bound %d exceeds the table's %d words", tc.name, pipeline, bound, exact)
			}
			if pipeline && tc.name == "FFTPaper" || pipeline && tc.name == "FFT(1024)" {
				if bound <= mcode.TableWords {
					t.Errorf("%s pipelined: bound %d does not exceed the %d-word table (exact %d)", tc.name, bound, mcode.TableWords, exact)
				}
				t.Logf("%s pipelined: bound %d, table %d words", tc.name, bound, exact)
			}
		}
	}
	if compared < 1200 {
		t.Errorf("only %d programs compared", compared)
	}
	t.Logf("%d programs compared, the bound applied to %d", compared, applied)
}
