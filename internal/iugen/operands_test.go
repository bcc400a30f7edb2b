package iugen

import (
	"sort"
	"strings"
	"testing"
)

// TestTable6_5 reproduces Table 6-5 exactly: the three operand
// allocations for a[i,j+1] and b[i+j,j] cost (3 regs, 6 adds, 2
// updates), (4, 2, 2) and (5, 1, 3).
func TestTable6_5(t *testing.T) {
	rows, err := Table65()
	if err != nil {
		t.Fatal(err)
	}
	want := []Table65Row{
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

// TestMinOperands exercises the operand decomposition directly.
func TestMinOperands(t *testing.T) {
	iN := Register{"i*N", SymVec{DimIN: 1}}
	j := Register{"j", SymVec{DimJ: 1}}
	// base_a + iN + j + 1 from {iN, j}: 2 registers + 2 atoms = 4
	// operands.
	target := SymVec{DimBaseA: 1, DimIN: 1, DimJ: 1, DimOne: 1}
	ops, err := minOperands(target, []Register{iN, j})
	if err != nil {
		t.Fatal(err)
	}
	if ops != 4 {
		t.Errorf("operands = %d, want 4", ops)
	}
	// A loop-variant residue is not formable.
	if _, err := minOperands(SymVec{DimJN: 1}, []Register{iN}); err == nil {
		t.Error("expected failure for uncovered loop-variant residue")
	}
	// An address that is exactly one register needs one operand
	// (zero additions).
	full := Register{"a[i,j]", target}
	ops, err = minOperands(target, []Register{full})
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
	addrA := SymVec{DimBaseA: 1, DimIN: 1, DimJ: 1, DimOne: 1}
	addrB := SymVec{DimBaseB: 1, DimIN: 1, DimJN: 1, DimJ: 1}
	pool := []Register{
		{"i*N", SymVec{DimIN: 1}},
		{"j*N", SymVec{DimJN: 1}},
		{"j", SymVec{DimJ: 1}},
		{"j+1", SymVec{DimJ: 1, DimOne: 1}},
		{"j*N+j", SymVec{DimJN: 1, DimJ: 1}},
		{"a[i]", SymVec{DimBaseA: 1, DimIN: 1}},
		{"b[i]", SymVec{DimBaseB: 1, DimIN: 1}},
		{"a[i,j]+1", addrA},
		{"b[i+j]", SymVec{DimBaseB: 1, DimIN: 1, DimJN: 1}},
	}
	frontier := EnumerateAllocations([]SymVec{addrA, addrB}, pool, 6)
	if len(frontier) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	paperRows, err := Table65()
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
func EnumerateAllocations(targets []SymVec, pool []Register, maxRegs int) []Table65Row {
	var rows []Table65Row
	n := len(pool)
	for mask := 1; mask < 1<<n; mask++ {
		var regs []Register
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				regs = append(regs, pool[b])
			}
		}
		if len(regs) > maxRegs {
			continue
		}
		al := Allocation{Regs: regs}
		arith, updates, err := al.Cost(targets)
		if err != nil {
			continue
		}
		var labels []string
		for _, r := range regs {
			labels = append(labels, r.Label)
		}
		rows = append(rows, Table65Row{
			Allocation: strings.Join(labels, ", "),
			Registers:  len(regs),
			Arithmetic: arith,
			Updates:    updates,
		})
	}
	// Pareto filter: drop rows dominated on all three axes.
	var frontier []Table65Row
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
