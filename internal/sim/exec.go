package sim

import (
	"fmt"

	"warp/internal/mcode"
)

// exec.go decodes the structured microprograms into flat instruction
// arrays and sequences them.  Cells are homogeneous, never stall and
// have static trip counts, so the control state of a cell (or the IU)
// is a program counter plus one iteration counter per loop-nesting
// depth over one decoded program shared by every cell.

// loopEnd is a loop-body boundary closed by the last instruction of the
// body: the sequencer either takes the back edge to head or falls
// through, and a cell pops one IU control signal per boundary crossed
// and checks it against that decision.
type loopEnd struct {
	id    int   // loop ID shared between the cell and IU programs
	trips int64 // static trip count
	head  int   // index of the body's first instruction
}

// cellInstr is one decoded cell microinstruction.
type cellInstr struct {
	*mcode.Instr
	depth int       // static loop-nesting depth (0 outside every loop)
	nop   bool      // no field issues
	ends  []loopEnd // boundaries closed after this instruction, innermost first
}

// iuInstr is one decoded IU microinstruction.
type iuInstr struct {
	*mcode.IUInstr
	depth int
	ends  []loopEnd
}

// decodeCell flattens a cell program in canonical walk order (the order
// mcode.AssignPCs numbers), so an instruction's index is its µPC.
func decodeCell(p *mcode.CellProgram) ([]cellInstr, error) {
	prog := make([]cellInstr, 0, p.NumInstrs())
	var walk func(items []mcode.CodeItem, depth int) error
	walk = func(items []mcode.CodeItem, depth int) error {
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.Straight:
				for _, in := range it.Instrs {
					prog = append(prog, cellInstr{Instr: in, depth: depth, nop: in.Empty()})
				}
			case *mcode.LoopItem:
				head := len(prog)
				if err := walk(it.Body, depth+1); err != nil {
					return err
				}
				if len(prog) == head {
					return fmt.Errorf("sim: cell loop L%d has an empty body", it.ID)
				}
				last := &prog[len(prog)-1]
				last.ends = append(last.ends, loopEnd{id: it.ID, trips: it.Trips, head: head})
			}
		}
		return nil
	}
	return prog, walk(p.Items, 0)
}

// decodeIU flattens the IU program the same way.  IU loops carry no
// signals of their own; they simply repeat their static trip count.
func decodeIU(p *mcode.IUProgram) ([]iuInstr, error) {
	prog := make([]iuInstr, 0, p.NumInstrs())
	var walk func(items []mcode.IUItem, depth int) error
	walk = func(items []mcode.IUItem, depth int) error {
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.IUStraight:
				for _, in := range it.Instrs {
					prog = append(prog, iuInstr{IUInstr: in, depth: depth})
				}
			case *mcode.IULoop:
				head := len(prog)
				if err := walk(it.Body, depth+1); err != nil {
					return err
				}
				if len(prog) == head {
					return fmt.Errorf("sim: IU loop L%d has an empty body", it.ID)
				}
				last := &prog[len(prog)-1]
				last.ends = append(last.ends, loopEnd{id: it.ID, trips: it.Trips, head: head})
			}
		}
		return nil
	}
	return prog, walk(p.Items, 0)
}

// seq is the control state of one agent over a decoded program.
type seq struct {
	pc   int
	iter []int64 // iter[d] is the current iteration of the enclosing loop at depth d+1
}

// advance moves past an instruction at the given depth.  It returns how
// many of its loop boundaries were crossed (ends[:crossed], innermost
// first): all but the last are loop exits, and more reports whether the
// last one took the back edge for another iteration.
func (s *seq) advance(depth int, ends []loopEnd) (crossed int, more bool) {
	for i := range ends {
		d := depth - 1 - i
		if s.iter[d]+1 < ends[i].trips {
			s.iter[d]++
			s.pc = ends[i].head
			return i + 1, true
		}
		s.iter[d] = 0
	}
	s.pc++
	return len(ends), false
}
