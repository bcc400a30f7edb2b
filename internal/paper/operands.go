package paper

import (
	"fmt"
	"strings"
)

// This file reproduces the operand-selection analysis of §6.3.2
// (Table 6-5): given the address expressions of a basic block inside a
// loop nest over N×N arrays with a *symbolic* N, which subexpressions
// should be bound to IU registers?  Each choice trades registers
// against the arithmetic needed to form the addresses and against the
// register updates required per inner-loop iteration.
//
// Values are vectors over the symbolic basis {1, N, i, i·N, j, j·N,
// base_a, base_b}: with N unknown at compile time, +1 and +base_a are
// separate additions, which is exactly how the paper counts the first
// allocation's six operations.

// Basis dimensions of a symbolic address value.
const (
	DimOne = iota // integer constant
	DimN
	DimI
	DimIN
	DimJ
	DimJN
	DimBaseA
	DimBaseB
	numDims
)

// SymVec is a symbolic value: integer coordinates over the basis.
type SymVec [numDims]int

// Add returns v+w.
func (v SymVec) Add(w SymVec) SymVec {
	for d := range w {
		v[d] += w[d]
	}
	return v
}

// Sub returns v−w.
func (v SymVec) Sub(w SymVec) SymVec {
	for d := range w {
		v[d] -= w[d]
	}
	return v
}

// InnerVariant reports whether the value changes with the inner loop
// index j.
func (v SymVec) InnerVariant() bool { return v[DimJ] != 0 || v[DimJN] != 0 }

// decomposeAtoms splits a loop-invariant residue into the immediates
// needed to add it in: one per nonzero symbolic atom.  ok=false if the
// residue is loop variant.
func (v SymVec) decomposeAtoms() (count int, ok bool) {
	if v[DimI] != 0 || v[DimIN] != 0 || v[DimJ] != 0 || v[DimJN] != 0 {
		return 0, false
	}
	for _, c := range v {
		if c != 0 {
			count++
		}
	}
	return count, true
}

// Register is one candidate register-resident value.
type Register struct {
	Label string
	Val   SymVec
}

// Allocation is one operand-selection choice: a set of register-bound
// subexpressions.
type Allocation struct {
	Label string
	Regs  []Register
}

// Cost evaluates an allocation against the address expressions to
// generate: the total number of additions needed to form all addresses
// each iteration, and the number of register updates in the inner loop
// (index j).  Registers that vary only with the outer index are updated
// outside the inner loop and do not count (§6.3.2, Table 6-5).
func (a Allocation) Cost(targets []SymVec) (arith, updates int, err error) {
	for _, t := range targets {
		ops, e := minOperands(t, a.Regs)
		if e != nil {
			return 0, 0, fmt.Errorf("allocation %q cannot form %v: %w", a.Label, t, e)
		}
		arith += ops - 1
	}
	for _, r := range a.Regs {
		if r.Val.InnerVariant() {
			updates++
		}
	}
	return arith, updates, nil
}

// minOperands finds the smallest number of operands (registers plus
// immediates) summing to the target, searching register subsets (each
// register used at most once).
func minOperands(target SymVec, regs []Register) (int, error) {
	best := -1
	n := len(regs)
	for mask := 0; mask < 1<<n; mask++ {
		sum := SymVec{}
		used := 0
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				sum = sum.Add(regs[b].Val)
				used++
			}
		}
		res := target.Sub(sum)
		atoms, ok := res.decomposeAtoms()
		if !ok {
			continue
		}
		total := used + atoms
		if total == 0 {
			continue // an address needs at least one operand
		}
		if best < 0 || total < best {
			best = total
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("loop-variant residue not covered by any register")
	}
	return best, nil
}

// Table65Row is one row of the reproduced Table 6-5.
type Table65Row struct {
	Allocation string
	Registers  int
	Arithmetic int
	Updates    int
}

// Table65 reproduces the paper's Table 6-5: operand allocations for
// generating the addresses of a[i,j+1] and b[i+j,j] inside a nested
// (i, j) loop over N×N arrays.
func Table65() ([]Table65Row, error) {
	// a[i,j+1] = base_a + i·N + j + 1
	addrA := SymVec{DimBaseA: 1, DimIN: 1, DimJ: 1, DimOne: 1}
	// b[i+j,j] = base_b + (i+j)·N + j
	addrB := SymVec{DimBaseB: 1, DimIN: 1, DimJN: 1, DimJ: 1}
	targets := []SymVec{addrA, addrB}

	allocs := []Allocation{
		{
			Label: "i*N, j*N, j",
			Regs: []Register{
				{"i*N", SymVec{DimIN: 1}},
				{"j*N", SymVec{DimJN: 1}},
				{"j", SymVec{DimJ: 1}},
			},
		},
		{
			// The biased forms make one addition per address: "j" holds
			// j+1 and "j*N" holds j·N+j (the paper labels them loosely).
			Label: "a[i], b[i], j, j*N",
			Regs: []Register{
				{"a[i]", SymVec{DimBaseA: 1, DimIN: 1}},
				{"b[i]", SymVec{DimBaseB: 1, DimIN: 1}},
				{"j (biased j+1)", SymVec{DimJ: 1, DimOne: 1}},
				{"j*N (biased j*N+j)", SymVec{DimJN: 1, DimJ: 1}},
			},
		},
		{
			Label: "a[i], b[i], a[i,j], b[i+j], j",
			Regs: []Register{
				{"a[i]", SymVec{DimBaseA: 1, DimIN: 1}},
				{"b[i]", SymVec{DimBaseB: 1, DimIN: 1}},
				{"a[i,j] (biased +1)", SymVec{DimBaseA: 1, DimIN: 1, DimJ: 1, DimOne: 1}},
				{"b[i+j]", SymVec{DimBaseB: 1, DimIN: 1, DimJN: 1}},
				{"j", SymVec{DimJ: 1}},
			},
		},
	}

	var rows []Table65Row
	for _, al := range allocs {
		arith, updates, err := al.Cost(targets)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table65Row{
			Allocation: al.Label,
			Registers:  len(al.Regs),
			Arithmetic: arith,
			Updates:    updates,
		})
	}
	return rows, nil
}

// FormatTable65 renders the rows like the paper's table.
func FormatTable65(rows []Table65Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-32s %9s %10s %7s\n", "Allocated to registers", "Registers", "Arithmetic", "Updates")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-32s %9d %10d %7d\n", r.Allocation, r.Registers, r.Arithmetic, r.Updates)
	}
	return sb.String()
}
