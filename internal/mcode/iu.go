package mcode

import (
	"fmt"
	"strings"
)

// This file models the interface unit (IU) microengine (§2.2, §6.3).
// The IU generates the address stream and the loop control signals for
// the Warp array.  Its constraints, which drive the IU code generator:
//
//   - 16 registers and no data memory (spilling is impossible);
//   - an adder/subtractor only — no multiplier, so every address must be
//     formed by additions and subtractions (strength reduction);
//   - a 32K-word table memory readable only in sequential order, used to
//     pre-store addresses the IU cannot compute in time;
//   - at least three cycles of counter work per loop iteration for the
//     termination test (§6.3.1).

// Architectural parameters of the IU.
const (
	// IUNumRegs is the number of IU registers (§6.3.2: "there is no
	// memory in the IU, at no time can there be more than 16 live
	// variables, since there are only 16 registers").
	IUNumRegs = 16
	// TableWords is the size of the sequential-access address table.
	TableWords = 32768
	// LoopOverheadCycles is the counter update-and-test time per
	// iteration (§6.3.1: "the IU ... needs at least three cycles to
	// update and test the loop counter").
	LoopOverheadCycles = 3
)

// IUReg is an IU register number.
type IUReg int

func (r IUReg) String() string { return fmt.Sprintf("a%d", r) }

// IUAlu is the IU's adder field: Dst ← A ± B.
type IUAlu struct {
	Sub    bool
	Dst, A IUReg
	B      IUReg
	BIsImm bool
	ImmVal int64
}

func (o *IUAlu) String() string {
	op := "+"
	if o.Sub {
		op = "-"
	}
	b := o.B.String()
	if o.BIsImm {
		b = fmt.Sprintf("#%d", o.ImmVal)
	}
	return fmt.Sprintf("%s <- %s %s %s", o.Dst, o.A, op, b)
}

// IUImm loads an immediate into a register.
type IUImm struct {
	Dst   IUReg
	Value int64
}

func (o *IUImm) String() string { return fmt.Sprintf("%s <- #%d", o.Dst, o.Value) }

// IUOut emits one address onto the Adr path, either from a register or
// from the next sequential table location.
type IUOut struct {
	FromTable bool
	Src       IUReg
}

func (o *IUOut) String() string {
	if o.FromTable {
		return "adr <- table++"
	}
	return fmt.Sprintf("adr <- %s", o.Src)
}

// IUSig emits the control signal for cell loop LoopID: whether another
// iteration follows.  Inside an IU loop the decision depends on the
// loop counter (this is the work §6.3.1's three cycles pay for): the
// cell iteration is iter·M + Copy of CellTrips, where iter is the
// enclosing IU loop's current repetition.  Signals emitted by unrolled
// remainder copies are static.
type IUSig struct {
	LoopID int
	// Static signals carry the decision directly.
	Static   bool
	Continue bool
	// Dynamic signals: cell iteration = iter·M + Copy of CellTrips.
	Copy      int64
	M         int64
	CellTrips int64
}

func (o *IUSig) String() string {
	if !o.Static {
		return fmt.Sprintf("sig L%d ctr*%d%+d<%d", o.LoopID, o.M, o.Copy, o.CellTrips-1)
	}
	if o.Continue {
		return fmt.Sprintf("sig L%d continue", o.LoopID)
	}
	return fmt.Sprintf("sig L%d stop", o.LoopID)
}

// IUInstr is one wide IU microinstruction; all non-nil fields issue in
// the same cycle.  Out has one slot per cell memory port, because the
// cells make up to two data-memory references per cycle.  CtrWork marks
// a cycle whose adder is reserved for loop-counter update-and-test
// bookkeeping (§6.3.1); it conflicts with Alu.
type IUInstr struct {
	Alu     *IUAlu
	Imm     *IUImm
	Out     [MemPorts]*IUOut
	Sig     *IUSig
	CtrWork bool
}

// Empty reports whether the instruction is a no-op.
func (in *IUInstr) Empty() bool {
	if in.Alu != nil || in.Imm != nil || in.Sig != nil || in.CtrWork {
		return false
	}
	for _, o := range in.Out {
		if o != nil {
			return false
		}
	}
	return true
}

func (in *IUInstr) String() string {
	var parts []string
	if in.Alu != nil {
		parts = append(parts, in.Alu.String())
	}
	if in.CtrWork {
		parts = append(parts, "ctr")
	}
	if in.Imm != nil {
		parts = append(parts, in.Imm.String())
	}
	for _, o := range in.Out {
		if o != nil {
			parts = append(parts, o.String())
		}
	}
	if in.Sig != nil {
		parts = append(parts, in.Sig.String())
	}
	if len(parts) == 0 {
		return "nop"
	}
	return strings.Join(parts, " | ")
}

// IUProgram is the complete IU microprogram, together with the
// pre-stored address table contents.
type IUProgram struct {
	Items []IUItem
	Table []int64
}

// NumInstrs counts static microinstructions (the "IU µcode" metric of
// Table 7-1).
func (p *IUProgram) NumInstrs() int { return numInstrs(p.Items) }

// Listing renders the IU program.
func (p *IUProgram) Listing() string {
	var sb strings.Builder
	listing(&sb, p.Items)
	if len(p.Table) > 0 {
		fmt.Fprintf(&sb, "table: %d entries\n", len(p.Table))
	}
	return sb.String()
}
