package mcode

import (
	"fmt"
	"strings"

	"warp/internal/w2"
)

// nest.go is the loop nest both microprograms share, over their own
// instruction words — Straight and LoopItem over Instr for a cell,
// IUStraight and IULoop over IUInstr for the IU — and the one fold over
// it.  Every pass that reads a program's structure (decoding, listings,
// counts, validation, the compiler's timed programs and host streams, the
// verifier's streams and IU tree, the debug map) is a Fold; only the
// walks that replay iterations rather than fold the structure keep their
// own recursion.

// Item is a node of a program over instruction words I: a *Block[I] or a
// *Loop[I].
type Item[I any] interface{ item(*I) }

// Block is a run of consecutive microinstructions.
type Block[I any] struct {
	Instrs []*I
}

// Loop is a counted loop.  The sequencer repeats the body; a cell takes
// the termination decision each iteration from the IU's loop control
// signal (§6.3.1).
//
// On a cell loop, Src/First/Step record the mapping from the hardware
// loop's iteration number k (0-based) to the source-level index of loop
// Src: i = First + Step·k.  The IU code generator uses it to evaluate
// affine addresses; software pipelining may retarget the mapping.  An IU
// loop, which mirrors a cell loop, leaves them zero.
type Loop[I any] struct {
	ID    int // loop identifier shared between the cell and IU programs
	Trips int64
	Body  []Item[I]

	Src   *w2.ForStmt
	First int64
	Step  int64
}

func (*Block[I]) item(*I) {}
func (*Loop[I]) item(*I)  {}

// The cell program's nest.
type (
	CodeItem = Item[Instr]
	Straight = Block[Instr]
	LoopItem = Loop[Instr]
	CellSite = Site[Instr]
)

// The IU program's nest.
type (
	IUItem     = Item[IUInstr]
	IUStraight = Block[IUInstr]
	IULoop     = Loop[IUInstr]
	IUSite     = Site[IUInstr]
)

// Site is where the fold meets an instruction or a loop.
type Site[I any] struct {
	// PC is the µPC the walk is at: an instruction's own (its index in the
	// walk), a loop's first body instruction's on entry and the one after
	// the body on exit.
	PC int
	// At is the cycle from the start of the enclosing loop's iteration, or
	// of the program: an instruction's issue cycle, a loop's first cycle.
	At int64
	// Block is an instruction's block, and Index its index there.
	Block *Block[I]
	Index int
	// Loops are the enclosing loops, outermost first.  The site and the
	// slice are the fold's own: they hold only during the call.
	Loops []*Loop[I]
}

// Fold visits items in µPC order — blocks and loop bodies in program
// order — and folds them into one value.  instr folds an instruction into
// the value so far; enter gives a loop's body its first value from the
// value before the loop; exit folds the loop — its body one iteration
// long iterLen cycles, folded to body — into the value before it.  A nil
// instr leaves the value as it is, a nil enter starts the body from the
// value before the loop and a nil exit takes the body's value as the
// loop's, so with neither the value threads through every instruction in
// order.  Fold returns the value and the items' length in cycles.  A loop
// runs its body max(Trips, 1) times, as the sequencer does (Seq.Advance),
// the products unchecked: CountCell and CountIU check them, and the
// validators refuse a trip count below one.
func Fold[I, V any](items []Item[I], v V,
	instr func(v V, in *I, s *Site[I]) V,
	enter func(v V, l *Loop[I], s *Site[I]) V,
	exit func(v V, l *Loop[I], s *Site[I], iterLen int64, body V) V) (V, int64) {
	f := folder[I, V]{instr: instr, enter: enter, exit: exit}
	return f.fold(items, v, newSite[I]())
}

// newSite returns a site at a program's start, in one allocation with
// room for the loops around every instruction the compiler emits.
func newSite[I any]() *Site[I] {
	st := new(struct {
		s     Site[I]
		loops [8]*Loop[I]
	})
	st.s.Loops = st.loops[:0]
	return &st.s
}

// loop returns the ID of the innermost loop around the site, or -1.
func (s *Site[I]) loop() int {
	if n := len(s.Loops); n > 0 {
		return s.Loops[n-1].ID
	}
	return -1
}

// folder holds the callbacks apart from the site it hands them, which
// leaves them on the caller's stack.
type folder[I, V any] struct {
	instr func(V, *I, *Site[I]) V
	enter func(V, *Loop[I], *Site[I]) V
	exit  func(V, *Loop[I], *Site[I], int64, V) V
}

func (f *folder[I, V]) fold(items []Item[I], v V, s *Site[I]) (V, int64) {
	var at int64
	for _, it := range items {
		switch it := it.(type) {
		case *Block[I]:
			pc := s.PC
			s.Block = it
			for i := 0; f.instr != nil && i < len(it.Instrs); i++ {
				s.PC, s.At, s.Index = pc+i, at+int64(i), i
				v = f.instr(v, it.Instrs[i], s)
			}
			s.PC = pc + len(it.Instrs)
			at += int64(len(it.Instrs))
		case *Loop[I]:
			s.At = at
			body := v
			if f.enter != nil {
				body = f.enter(v, it, s)
			}
			s.Loops = append(s.Loops, it)
			body, n := f.fold(it.Body, body, s)
			s.Loops = s.Loops[:len(s.Loops)-1]
			s.At = at
			if f.exit != nil {
				body = f.exit(v, it, s, n, body)
			}
			v, at = body, at+n*max(it.Trips, 1)
		}
	}
	return v, at
}

// Cycles is the length in cycles of one execution of items (Fold's).
func Cycles[I any](items []Item[I]) int64 {
	_, n := Fold(items, struct{}{}, nil, nil, nil)
	return n
}

// HoldsLoop reports whether items hold a loop of their own.
func HoldsLoop[I any](items []Item[I]) bool {
	for _, it := range items {
		if _, ok := it.(*Loop[I]); ok {
			return true
		}
	}
	return false
}

// numInstrs counts the static microinstructions of items: the µPC a
// fold ends at.
func numInstrs[I any](items []Item[I]) int {
	s := newSite[I]()
	(&folder[I, struct{}]{}).fold(items, struct{}{}, s)
	return s.PC
}

// listing renders items into sb: an instruction a line and a header a
// loop, each indented two spaces a loop around it.
func listing[I any](sb *strings.Builder, items []Item[I]) {
	indent := func(depth int) {
		for range depth {
			sb.WriteString("  ")
		}
	}
	Fold(items, struct{}{}, func(v struct{}, in *I, s *Site[I]) struct{} {
		indent(len(s.Loops))
		fmt.Fprintf(sb, "%s\n", in)
		return v
	}, func(v struct{}, l *Loop[I], s *Site[I]) struct{} {
		indent(len(s.Loops))
		fmt.Fprintf(sb, "loop L%d (%d times):\n", l.ID, l.Trips)
		return v
	}, nil)
}
