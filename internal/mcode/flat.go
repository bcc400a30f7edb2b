package mcode

import (
	"fmt"
	"sync"
)

// flat.go is the executable form of the machine model: the structured
// microprograms decoded into flat instruction arrays, the sequencer that
// steps them, and the static elaboration of the IU.  Cells are
// homogeneous, never stall and have static trip counts, so the control
// state of a cell (or the IU) is a program counter plus one iteration
// counter per loop-nesting depth over one decoded program.  The
// simulator and the fast executor's trace builder sequence through this
// one definition; the verifier decodes the cell program with it and
// proves the IU's streams from the IU loop tree, with Elaborate as the
// test oracle of that proof.

// LoopEnd is a loop-body boundary closed by the last instruction of the
// body: the sequencer either takes the back edge to Head or falls
// through, and a cell pops one IU control signal per boundary crossed
// and checks it against that decision.
type LoopEnd struct {
	ID    int   // loop ID shared between the cell and IU programs
	Trips int64 // static trip count
	Head  int   // index of the body's first instruction
}

// CellWord is one decoded cell microinstruction.
type CellWord struct {
	*Instr
	Depth int       // static loop-nesting depth (0 outside every loop)
	Nop   bool      // no field issues
	Ends  []LoopEnd // boundaries closed after this instruction, innermost first
}

// IUWord is one decoded IU microinstruction.
type IUWord struct {
	*IUInstr
	Depth int
	Ends  []LoopEnd
	// Run counts the idle words starting here: this word and the Run−1
	// after it emit nothing, write no register and close no loop (counter
	// work has no effect on the register machine), so the IU's state
	// after them is its state before, Run cycles later.  Zero on a word
	// that does anything.
	Run int
}

// CellCode is a decoded cell program.  A word's index is its µPC: the
// number AssignPCs gives the instruction.
type CellCode struct {
	Words []CellWord
	Depth int // deepest loop nesting
}

// IUCode is a decoded IU program, indexed by IU µPC (listing order).
type IUCode struct {
	Words []IUWord
	Depth int
	// Adrs and Sigs are how many addresses and signals one run emits
	// (closed form over trip counts, products saturating at emitHint):
	// what Elaborate sizes its trace by.
	Adrs, Sigs int64
}

// emitHint is where DecodeIU stops multiplying trip counts out.
const emitHint = 1 << 31

// DecodeCell flattens a cell program in canonical walk order.  A loop
// whose body holds no instruction has no boundary to sequence: it is
// left out of the code (it would take no time and issue nothing) and the
// first such loop is reported as an error, so a caller may reject the
// program or run the rest.
func DecodeCell(p *CellProgram) (CellCode, error) {
	code := CellCode{Words: make([]CellWord, 0, p.NumInstrs())}
	var empty error
	var walk func(items []CodeItem, depth int)
	walk = func(items []CodeItem, depth int) {
		for _, it := range items {
			switch it := it.(type) {
			case *Straight:
				for _, in := range it.Instrs {
					code.Words = append(code.Words, CellWord{Instr: in, Depth: depth, Nop: in.Empty()})
				}
			case *LoopItem:
				head := len(code.Words)
				walk(it.Body, depth+1)
				if len(code.Words) == head {
					if empty == nil {
						empty = fmt.Errorf("loop L%d has an empty body", it.ID)
					}
					continue
				}
				code.Depth = max(code.Depth, depth+1)
				last := &code.Words[len(code.Words)-1]
				last.Ends = append(last.Ends, LoopEnd{ID: it.ID, Trips: it.Trips, Head: head})
			}
		}
	}
	walk(p.Items, 0)
	return code, empty
}

// DecodeIU flattens the IU program the same way.  IU loops carry no
// signals of their own; they simply repeat their static trip count.
func DecodeIU(p *IUProgram) (IUCode, error) {
	code := IUCode{Words: make([]IUWord, 0, p.NumInstrs())}
	var empty error
	var walk func(items []IUItem, depth int, runs int64)
	walk = func(items []IUItem, depth int, runs int64) {
		for _, it := range items {
			switch it := it.(type) {
			case *IUStraight:
				for _, in := range it.Instrs {
					code.Words = append(code.Words, IUWord{IUInstr: in, Depth: depth})
					for _, o := range in.Out {
						if o != nil {
							code.Adrs += runs
						}
					}
					if in.Sig != nil {
						code.Sigs += runs
					}
				}
			case *IULoop:
				head := len(code.Words)
				inner := int64(emitHint)
				if trips := max(it.Trips, 1); trips < emitHint/runs {
					inner = runs * trips
				}
				walk(it.Body, depth+1, inner)
				if len(code.Words) == head {
					if empty == nil {
						empty = fmt.Errorf("loop L%d has an empty body", it.ID)
					}
					continue
				}
				code.Depth = max(code.Depth, depth+1)
				last := &code.Words[len(code.Words)-1]
				last.Ends = append(last.Ends, LoopEnd{ID: it.ID, Trips: it.Trips, Head: head})
			}
		}
	}
	walk(p.Items, 0, 1)
	for pc := len(code.Words) - 1; pc >= 0; pc-- {
		w := &code.Words[pc]
		if w.Alu != nil || w.Imm != nil || w.Sig != nil || w.Out != [MemPorts]*IUOut{} || len(w.Ends) > 0 {
			continue
		}
		w.Run = 1
		if pc+1 < len(code.Words) {
			w.Run += code.Words[pc+1].Run
		}
	}
	return code, empty
}

// Seq is the control state of one agent over a decoded program.
type Seq struct {
	PC   int
	Iter []int64 // Iter[d] is the current iteration of the enclosing loop at depth d+1
}

// Advance moves past an instruction at the given depth.  It returns how
// many of its loop boundaries were crossed (ends[:crossed], innermost
// first): all but the last are loop exits, and more reports whether the
// last one took the back edge for another iteration.  Loops are
// do-while: a trip count below one still runs its body once.
func (s *Seq) Advance(depth int, ends []LoopEnd) (crossed int, more bool) {
	for i := range ends {
		d := depth - 1 - i
		if s.Iter[d]+1 < ends[i].Trips {
			s.Iter[d]++
			s.PC = ends[i].Head
			return i + 1, true
		}
		s.Iter[d] = 0
	}
	s.PC++
	return len(ends), false
}

// AdrEvent is one address the IU pushes onto the Adr path.
type AdrEvent struct {
	Val int64
	At  int64 // IU cycle
	PC  int   // IU µPC of the emitting instruction
}

// SigEvent is one loop-control signal the IU pushes.
type SigEvent struct {
	ID   int
	More bool
	At   int64
	PC   int
}

// IUTrace is everything the IU emits over one run.  Only the fast
// executor's plan validation reads one in production; the verifier proves
// the same streams without it.
type IUTrace struct {
	Adr    []AdrEvent
	Sigs   []SigEvent
	Cycles int64
	// TableReads counts the sequential table reads issued.  Reads past
	// the end of the table yield address 0; OverRead is the index in Adr
	// of the first of them, or -1.
	TableReads int
	OverRead   int
}

// tracePool recycles traces.  A trace is as long as the IU's run and is
// read once, by the fast executor's validation walk (and by tests), so
// every plan build would otherwise allocate megabytes and drop them.
var tracePool = sync.Pool{New: func() any { return new(IUTrace) }}

// Release hands the trace's storage to the next Elaborate.  The trace
// must not be used afterwards.
func (tr *IUTrace) Release() { tracePool.Put(tr) }

// emptied returns s emptied, or a new slice when s has no room for n:
// never nil, so a trace does not depend on what the pool handed out.
func emptied[T any](s []T, n int64) []T {
	if s == nil || int64(cap(s)) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Elaborate runs the IU register machine over the decoded program and
// returns the streams it emits.  The IU's arithmetic is input-independent
// — immediates, an adder and a pre-stored table — so this is the
// machine's exact behaviour, not an approximation.  Register writes land
// the next cycle, before that cycle's reads; when the immediate and the
// adder field of one instruction write the same register, the adder's
// result is the one that stays.  A run of idle words is crossed in one
// step.  done is false when the program runs past limit cycles; the trace
// then holds only what was emitted so far.
func (c IUCode) Elaborate(table []int64, limit int64) (tr *IUTrace, done bool) {
	tr = tracePool.Get().(*IUTrace)
	*tr = IUTrace{
		Adr:      emptied(tr.Adr, min(c.Adrs, MemPorts*limit)),
		Sigs:     emptied(tr.Sigs, min(c.Sigs, limit)),
		OverRead: -1,
	}
	var regs [IUNumRegs]int64
	s := Seq{Iter: make([]int64, c.Depth)}
	for s.PC < len(c.Words) {
		if tr.Cycles >= limit {
			return tr, false
		}
		t, pc := tr.Cycles, s.PC
		in := &c.Words[pc]
		if in.Run > 0 {
			n := min(int64(in.Run), limit-t)
			s.PC += int(n)
			tr.Cycles += n
			continue
		}
		// The current iteration of the innermost enclosing IU loop.
		var iter int64
		if in.Depth > 0 {
			iter = s.Iter[in.Depth-1]
		}
		s.Advance(in.Depth, in.Ends)

		for _, out := range in.Out {
			if out == nil {
				continue
			}
			var v int64
			if !out.FromTable {
				v = regs[out.Src]
			} else {
				if tr.TableReads < len(table) {
					v = table[tr.TableReads]
				} else if tr.OverRead < 0 {
					tr.OverRead = len(tr.Adr)
				}
				tr.TableReads++
			}
			tr.Adr = append(tr.Adr, AdrEvent{Val: v, At: t, PC: pc})
		}
		if sig := in.Sig; sig != nil {
			more := sig.Continue
			if !sig.Static {
				// The termination decision the IU's counter work pays for
				// (§6.3.1): cell iteration iter·M + Copy of CellTrips.
				more = iter*sig.M+sig.Copy < sig.CellTrips-1
			}
			tr.Sigs = append(tr.Sigs, SigEvent{ID: sig.LoopID, More: more, At: t, PC: pc})
		}
		// Every read of this cycle is done (the adder's below included)
		// before either write is applied: the writes land next cycle.
		var sum int64
		if alu := in.Alu; alu != nil {
			a, b := regs[alu.A], alu.ImmVal
			if !alu.BIsImm {
				b = regs[alu.B]
			}
			sum = a + b
			if alu.Sub {
				sum = a - b
			}
		}
		if in.Imm != nil {
			regs[in.Imm.Dst] = in.Imm.Value
		}
		if in.Alu != nil {
			regs[in.Alu.Dst] = sum
		}
		tr.Cycles++
	}
	return tr, true
}
