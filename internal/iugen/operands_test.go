package iugen_test

import (
	"sort"
	"strings"
	"testing"

	"warp/internal/paper"
)

// TestTable6_5 reproduces Table 6-5 exactly: the three operand
// allocations for a[i,j+1] and b[i+j,j] cost (3 regs, 6 adds, 2
// updates), (4, 2, 2) and (5, 1, 3).
func TestTable6_5(t *testing.T) {
	rows, err := paper.Table65()
	if err != nil {
		t.Fatal(err)
	}
	want := []paper.Table65Row{
		{Registers: 3, Arithmetic: 6, Updates: 2},
		{Registers: 4, Arithmetic: 2, Updates: 2},
		{Registers: 5, Arithmetic: 1, Updates: 3},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		w := want[i]
		if r.Registers != w.Registers || r.Arithmetic != w.Arithmetic || r.Updates != w.Updates {
			t.Errorf("row %d (%s): (regs=%d, arith=%d, upd=%d), want (%d, %d, %d)",
				i, r.Allocation, r.Registers, r.Arithmetic, r.Updates,
				w.Registers, w.Arithmetic, w.Updates)
		}
	}
}

// operands is the fewest operands that sum to target under regs: Cost
// counts the additions among them, one fewer.
func operands(target paper.SymVec, regs []paper.Register) (int, error) {
	arith, _, err := paper.Allocation{Regs: regs}.Cost([]paper.SymVec{target})
	return arith + 1, err
}

// TestMinOperands exercises the operand decomposition.
func TestMinOperands(t *testing.T) {
	iN := paper.Register{Label: "i*N", Val: paper.SymVec{paper.DimIN: 1}}
	j := paper.Register{Label: "j", Val: paper.SymVec{paper.DimJ: 1}}
	// base_a + iN + j + 1 from {iN, j}: 2 registers + 2 atoms = 4
	// operands.
	target := paper.SymVec{paper.DimBaseA: 1, paper.DimIN: 1, paper.DimJ: 1, paper.DimOne: 1}
	ops, err := operands(target, []paper.Register{iN, j})
	if err != nil {
		t.Fatal(err)
	}
	if ops != 4 {
		t.Errorf("operands = %d, want 4", ops)
	}
	// A loop-variant residue is not formable.
	if _, err := operands(paper.SymVec{paper.DimJN: 1}, []paper.Register{iN}); err == nil {
		t.Error("expected failure for uncovered loop-variant residue")
	}
	// An address that is exactly one register needs one operand
	// (zero additions).
	full := paper.Register{Label: "a[i,j]", Val: target}
	ops, err = operands(target, []paper.Register{full})
	if err != nil {
		t.Fatal(err)
	}
	if ops != 1 {
		t.Errorf("operands = %d, want 1", ops)
	}
}

// TestEnumerateAllocations checks that the systematic search finds an
// allocation at least as good as every paper row.
func TestEnumerateAllocations(t *testing.T) {
	addrA := paper.SymVec{paper.DimBaseA: 1, paper.DimIN: 1, paper.DimJ: 1, paper.DimOne: 1}
	addrB := paper.SymVec{paper.DimBaseB: 1, paper.DimIN: 1, paper.DimJN: 1, paper.DimJ: 1}
	pool := []paper.Register{
		{Label: "i*N", Val: paper.SymVec{paper.DimIN: 1}},
		{Label: "j*N", Val: paper.SymVec{paper.DimJN: 1}},
		{Label: "j", Val: paper.SymVec{paper.DimJ: 1}},
		{Label: "j+1", Val: paper.SymVec{paper.DimJ: 1, paper.DimOne: 1}},
		{Label: "j*N+j", Val: paper.SymVec{paper.DimJN: 1, paper.DimJ: 1}},
		{Label: "a[i]", Val: paper.SymVec{paper.DimBaseA: 1, paper.DimIN: 1}},
		{Label: "b[i]", Val: paper.SymVec{paper.DimBaseB: 1, paper.DimIN: 1}},
		{Label: "a[i,j]+1", Val: addrA},
		{Label: "b[i+j]", Val: paper.SymVec{paper.DimBaseB: 1, paper.DimIN: 1, paper.DimJN: 1}},
	}
	frontier := EnumerateAllocations([]paper.SymVec{addrA, addrB}, pool, 6)
	if len(frontier) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	paperRows, err := paper.Table65()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paperRows {
		covered := false
		for _, f := range frontier {
			if f.Registers <= p.Registers && f.Arithmetic <= p.Arithmetic && f.Updates <= p.Updates {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("no enumerated allocation matches or beats paper row (%d, %d, %d)",
				p.Registers, p.Arithmetic, p.Updates)
		}
	}
}

// EnumerateAllocations searches the allocation space systematically:
// every subset of a candidate pool, reporting the Pareto frontier over
// (registers, arithmetic, updates).  This extends the paper's
// observation that "the options in Table 6-5 are not complete".
func EnumerateAllocations(targets []paper.SymVec, pool []paper.Register, maxRegs int) []paper.Table65Row {
	var rows []paper.Table65Row
	n := len(pool)
	for mask := 1; mask < 1<<n; mask++ {
		var regs []paper.Register
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				regs = append(regs, pool[b])
			}
		}
		if len(regs) > maxRegs {
			continue
		}
		al := paper.Allocation{Regs: regs}
		arith, updates, err := al.Cost(targets)
		if err != nil {
			continue
		}
		var labels []string
		for _, r := range regs {
			labels = append(labels, r.Label)
		}
		rows = append(rows, paper.Table65Row{
			Allocation: strings.Join(labels, ", "),
			Registers:  len(regs),
			Arithmetic: arith,
			Updates:    updates,
		})
	}
	// Pareto filter: drop rows dominated on all three axes.
	var frontier []paper.Table65Row
	for i, r := range rows {
		dominated := false
		for j, q := range rows {
			if i == j {
				continue
			}
			if q.Registers <= r.Registers && q.Arithmetic <= r.Arithmetic && q.Updates <= r.Updates &&
				(q.Registers < r.Registers || q.Arithmetic < r.Arithmetic || q.Updates < r.Updates) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, r)
		}
	}
	sort.Slice(frontier, func(i, j int) bool {
		if frontier[i].Registers != frontier[j].Registers {
			return frontier[i].Registers < frontier[j].Registers
		}
		return frontier[i].Arithmetic < frontier[j].Arithmetic
	})
	return frontier
}
