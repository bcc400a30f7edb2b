package mcode

import (
	"fmt"

	"warp/internal/w2"
)

// This file provides structural validation of generated microprograms:
// the machine invariants every code generator must respect.  The driver
// test suite runs these validators over every compiled program.

// ValidateCell checks the structural invariants of a cell microprogram:
//
//   - registers within the file;
//   - at most one queue operation per port per instruction;
//   - the Mov field carries only Mov operations, Add no MUL-unit codes
//     and vice versa;
//   - loops have positive trip counts and nonempty bodies.
func ValidateCell(p *CellProgram) error {
	return validateCellItems(p.Items)
}

func validateCellItems(items []CodeItem) error {
	for _, it := range items {
		switch it := it.(type) {
		case *Straight:
			for i, in := range it.Instrs {
				if err := validateInstr(in); err != nil {
					return fmt.Errorf("instruction %d: %w", i, err)
				}
			}
		case *LoopItem:
			if it.Trips < 1 {
				return fmt.Errorf("loop L%d: %d trips", it.ID, it.Trips)
			}
			var body int64
			for _, b := range it.Body {
				body += b.Cycles()
			}
			if body == 0 {
				return fmt.Errorf("loop L%d: empty body", it.ID)
			}
			if err := validateCellItems(it.Body); err != nil {
				return fmt.Errorf("loop L%d: %w", it.ID, err)
			}
		}
	}
	return nil
}

func regOK(r Reg) bool { return r >= 0 && r < NumRegs }

func validateInstr(in *Instr) error {
	checkAlu := func(op *AluOp, field string) error {
		if op == nil {
			return nil
		}
		if !regOK(op.Dst) {
			return fmt.Errorf("%s: destination %s out of range", field, op.Dst)
		}
		for i := 0; i < op.Code.NumOperands(); i++ {
			if !regOK(op.Src[i]) {
				return fmt.Errorf("%s: source %s out of range", field, op.Src[i])
			}
		}
		switch field {
		case "add":
			if op.Code.OnMulUnit() || op.Code == Mov {
				return fmt.Errorf("add field carries %s", op.Code)
			}
		case "mul":
			if !op.Code.OnMulUnit() {
				return fmt.Errorf("mul field carries %s", op.Code)
			}
		case "mov":
			if op.Code != Mov {
				return fmt.Errorf("mov field carries %s", op.Code)
			}
		}
		return nil
	}
	if err := checkAlu(in.Add, "add"); err != nil {
		return err
	}
	if err := checkAlu(in.Mul, "mul"); err != nil {
		return err
	}
	if err := checkAlu(in.Mov, "mov"); err != nil {
		return err
	}
	type port struct {
		recv bool
		dir  w2.Direction
		ch   w2.Channel
	}
	seen := map[port]bool{}
	for _, io := range in.IO {
		p := port{io.Recv, io.Dir, io.Chan}
		if seen[p] {
			return fmt.Errorf("two operations on one queue port in a cycle")
		}
		seen[p] = true
		if !regOK(io.Reg) {
			return fmt.Errorf("queue operation register %s out of range", io.Reg)
		}
	}
	for _, m := range in.Mem {
		if m != nil && !regOK(m.Reg) {
			return fmt.Errorf("memory operation register %s out of range", m.Reg)
		}
	}
	if in.Lit != nil && !regOK(in.Lit.Dst) {
		return fmt.Errorf("literal destination %s out of range", in.Lit.Dst)
	}
	return nil
}

// CellCounts are the dynamic operation counts of a cell program.
type CellCounts struct {
	Ops     int64 // non-empty instructions executed = the fast executor's trace length
	AdrPops int64 // memory references = addresses consumed
	Signals int64 // loop boundaries = control signals consumed
	Recv    map[w2.Channel]int64
	Send    map[w2.Channel]int64
}

// CountCell computes the dynamic counts by walking the structure.
func CountCell(p *CellProgram) CellCounts {
	c := CellCounts{Recv: map[w2.Channel]int64{}, Send: map[w2.Channel]int64{}}
	countCellItems(p.Items, 1, &c)
	return c
}

func countCellItems(items []CodeItem, mult int64, c *CellCounts) {
	for _, it := range items {
		switch it := it.(type) {
		case *Straight:
			for _, in := range it.Instrs {
				if !in.Empty() {
					c.Ops += mult
				}
				for _, m := range in.Mem {
					if m != nil {
						c.AdrPops += mult
					}
				}
				for _, io := range in.IO {
					if io.Recv {
						c.Recv[io.Chan] += mult
					} else {
						c.Send[io.Chan] += mult
					}
				}
			}
		case *LoopItem:
			c.Signals += mult * it.Trips
			countCellItems(it.Body, mult*it.Trips, c)
		}
	}
}

// ValidateIU checks the structural invariants of an IU microprogram:
// registers within the 16-register file, positive trip counts, and no
// multiplications (true by construction — the instruction set has
// none).
func ValidateIU(p *IUProgram) error {
	return validateIUItems(p.Items)
}

func validateIUItems(items []IUItem) error {
	iuRegOK := func(r IUReg) bool { return r >= 0 && r < IUNumRegs }
	for _, it := range items {
		switch it := it.(type) {
		case *IUStraight:
			for _, in := range it.Instrs {
				if in.Alu != nil {
					if !iuRegOK(in.Alu.Dst) || !iuRegOK(in.Alu.A) || (!in.Alu.BIsImm && !iuRegOK(in.Alu.B)) {
						return fmt.Errorf("IU adder register out of range: %s", in.Alu)
					}
					if in.CtrWork {
						return fmt.Errorf("adder field and counter work collide")
					}
				}
				if in.Imm != nil && !iuRegOK(in.Imm.Dst) {
					return fmt.Errorf("IU immediate register out of range")
				}
				for _, o := range in.Out {
					if o != nil && !o.FromTable && !iuRegOK(o.Src) {
						return fmt.Errorf("IU address output register out of range")
					}
				}
			}
		case *IULoop:
			if it.Trips < 1 {
				return fmt.Errorf("IU loop L%d: %d trips", it.ID, it.Trips)
			}
			if err := validateIUItems(it.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

// IUCounts are the dynamic emission counts of an IU program.
type IUCounts struct {
	AdrOuts   int64
	TableOuts int64
	Signals   int64
}

// CountIU computes the dynamic counts by walking the structure.
func CountIU(p *IUProgram) IUCounts {
	var c IUCounts
	countIUItems(p.Items, 1, &c)
	return c
}

func countIUItems(items []IUItem, mult int64, c *IUCounts) {
	for _, it := range items {
		switch it := it.(type) {
		case *IUStraight:
			for _, in := range it.Instrs {
				for _, o := range in.Out {
					if o == nil {
						continue
					}
					c.AdrOuts += mult
					if o.FromTable {
						c.TableOuts += mult
					}
				}
				if in.Sig != nil {
					c.Signals += mult
				}
			}
		case *IULoop:
			countIUItems(it.Body, mult*it.Trips, c)
		}
	}
}
