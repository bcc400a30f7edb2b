package mcode

import (
	"cmp"
	"fmt"
)

// flat.go is the executable form of the machine model: the structured
// microprograms decoded into flat arrays, the sequencer that steps them,
// the cell's landing model and the IU's cycle.  Cells are homogeneous,
// never stall and have static trip counts, so the control state of a
// cell (or the IU) is a word index plus one iteration counter per
// loop-nesting depth over one decoded program.
//
// Decode builds the one decoded cell program: compact words and, in the
// same walk, the one op stream their fields lower to (lower.go).  The
// simulator steps it cycle by cycle under real queues, taking addresses
// from the IU; the fast executor runs it at dataflow speed from the bound
// addresses, each word's ops partitioned into reads and writes; all four
// executor bodies walk the ops, landing a word's writes through CellRegs,
// or a batched walk's through LaneRegs.  The verifier reads the
// microcode itself and proves the IU's streams from the IU loop tree,
// with Elaborate as the test oracle of that proof.

// LoopEnd is a loop-body boundary closed by the last instruction of the
// body: the sequencer either takes the back edge to Head or falls
// through, and a cell pops one IU control signal per boundary crossed
// and checks it against that decision.
type LoopEnd struct {
	ID    int   // loop ID shared between the cell and IU programs
	Trips int64 // static trip count
	Head  int   // index of the body's first word
}

// Memory-field kinds.
const (
	MemNone = iota
	MemLoad
	MemStore
)

// MemField is the address a memory op is bound to: with the enclosing
// loops at iterations iter it is Start + Σ Coef·iter[Depth] over the
// code's Terms[TermLo:TermHi], counted from the code's MemLo.
type MemField struct {
	Start          int64
	TermLo, TermHi int32
}

// Word is one microinstruction of the decoded cell program, in 32 bytes
// (the executors step one a cycle): Skip idle cycles, then its issuing
// cycle, which runs the code's Ops[Lo:Hi] and then the literal, then the
// loops it closes (Ends[EndLo:EndHi], innermost first).  The word's idle
// cycles are µPCs PC to PC+Skip−1 and its issuing cycle is µPC PC+Skip.
type Word struct {
	Skip         int32
	PC           int32 // µPC of the word's first cycle
	Lo, Hi       int32
	EndLo, EndHi int32
	Depth        uint16 // static loop-nesting depth (0 outside every loop)

	Nop                    bool // no field issues
	HasAdd, HasMul, HasMov bool // which FPU fields issue, for the recorder and the accounting
	Lit                    bool // the literal field writes the code's Lits[word] to LitDst
	LitDst                 uint8
}

// Decoded is a decoded cell program.  Its size depends on the microcode
// alone, whatever the trip counts.
type Decoded struct {
	Words []Word
	Lits  []float64 // each word's literal value
	Ops   []Op
	Mems  []MemField // the memory ops' addresses, in op order
	Terms []LoopTerm
	Ends  []LoopEnd
	Depth int // deepest loop nesting

	// The envelope of the addresses the memory fields are bound to: cell
	// memory words MemLo up to MemLo+MemWords, cut to the cell memory.
	MemLo    int64
	MemWords int
	// Unbound is the first memory-field address Bind could not resolve;
	// the field's Start and terms are then meaningless.
	Unbound error
}

// Decode flattens a cell program in canonical walk order.  A loop whose
// body holds no instruction has no boundary to sequence: it is left out
// of the code (it would take no time and issue nothing) and the first
// such loop is reported as an error, so a caller may reject the program
// or run the rest.
func Decode(p *CellProgram) (*Decoded, error) {
	// Size the slabs from the program: one walk to count, one to fill.
	var instrs, ops, mems, terms int
	WalkInstrs(p.Items, func(in *Instr, _ []*LoopItem) {
		instrs++
		ops += len(in.IO)
		for port := range in.Mem {
			if mo := &in.Mem[port]; mo.Kind != MemNone {
				ops, mems, terms = ops+1, mems+1, terms+len(mo.Addr.Affine.Terms)
			}
		}
		for _, on := range [...]bool{in.HasAdd, in.HasMul, in.HasMov} {
			if on {
				ops++
			}
		}
	})
	d := &Decoded{Words: make([]Word, 0, instrs), Lits: make([]float64, 0, instrs), Ops: make([]Op, 0, ops), Mems: make([]MemField, 0, mems),
		Terms: make([]LoopTerm, 0, terms)}
	var empty error
	idle := 0                            // the idle instructions before the next µPC not yet in a word
	lo, hi := int64(MemWords), int64(-1) // the envelope, empty so far
	// word starts a word at µPC at, depth loops deep: skip idle cycles and
	// no fields yet.
	word := func(skip, at, depth int) Word {
		op, end := int32(len(d.Ops)), int32(len(d.Ends))
		return Word{Skip: int32(skip), Depth: uint16(depth), PC: int32(at), Lo: op, Hi: op, EndLo: end, EndHi: end}
	}
	// flush puts the idle run before µPC pc into a word of its own, its
	// last instruction the issuing cycle.
	flush := func(pc, depth int) {
		if idle > 0 {
			w := word(idle-1, pc-idle, depth)
			w.Nop = true
			d.Words, d.Lits, idle = append(d.Words, w), append(d.Lits, 0), 0
		}
	}
	// A loop body's value is its first word and µPC.
	type body struct{ head, pc int }
	Fold(p.Items, body{}, func(v body, in *Instr, s *CellSite) body {
		if in.Empty() {
			idle++
			return v
		}
		w := word(idle, s.PC-idle, len(s.Loops))
		idle = 0
		for k := range in.IO {
			d.Ops = append(d.Ops, ioOp(&in.IO[k]))
		}
		for port := range in.Mem {
			mo := &in.Mem[port]
			if mo.Kind == MemNone {
				continue
			}
			b, err := mo.Addr.Bind(s.Loops, d.Terms)
			if err != nil {
				d.Unbound = cmp.Or(d.Unbound, err)
				b.Terms = d.Terms
			}
			lo, hi = min(lo, b.Lo), max(hi, b.Hi)
			d.Ops = append(d.Ops, memOp(mo, port, len(d.Mems)))
			d.Mems = append(d.Mems, MemField{Start: b.Start, TermLo: int32(len(d.Terms)), TermHi: int32(len(b.Terms))})
			d.Terms = b.Terms
		}
		for _, f := range [...]struct {
			on bool
			op *AluOp
		}{{in.HasAdd, &in.Add}, {in.HasMul, &in.Mul}, {in.HasMov, &in.Mov}} {
			if f.on {
				d.Ops = append(d.Ops, aluOp(f.op))
			}
		}
		w.Hi = int32(len(d.Ops))
		w.HasAdd, w.HasMul, w.HasMov = in.HasAdd, in.HasMul, in.HasMov
		lit := 0.0
		if in.HasLit {
			w.Lit, w.LitDst, lit = true, narrow(in.Lit.Dst), in.Lit.Value
		}
		d.Words, d.Lits = append(d.Words, w), append(d.Lits, lit)
		return v
	}, func(_ body, _ *LoopItem, s *CellSite) body {
		// An idle run ends at a loop head: the back edge must count only
		// the idle cycles inside the body.
		flush(s.PC, len(s.Loops))
		return body{len(d.Words), s.PC}
	}, func(v body, l *LoopItem, s *CellSite, _ int64, b body) body {
		depth := len(s.Loops) + 1
		flush(s.PC, depth)
		if s.PC == b.pc {
			empty = cmp.Or(empty, fmt.Errorf("loop L%d has an empty body", l.ID))
			return v
		}
		d.Depth = max(d.Depth, depth)
		// The body's last word closes the loop; ends are appended innermost
		// first, and only to the last word, so they stay contiguous.
		d.Ends = append(d.Ends, LoopEnd{ID: l.ID, Trips: l.Trips, Head: b.head})
		d.Words[len(d.Words)-1].EndHi = int32(len(d.Ends))
		return v
	})
	flush(instrs, 0)
	// Addresses count from the envelope's low end, cut to the cell memory.
	d.MemLo = max(lo, 0)
	d.MemWords = int(max(min(hi, MemWords-1)-d.MemLo+1, 0))
	for i := range d.Mems {
		d.Mems[i].Start -= d.MemLo
	}
	return d, empty
}

// FPUSlots holds the FPU results in flight in one cell: at most three
// fields a word, each landing FPULatency cycles later (a power of two).
const FPUSlots = 16

var _ [FPUSlots - 3*FPULatency]struct{} // does not compile if the FIFO is too small

// regWrite is a register write waiting to land.
type regWrite struct {
	reg  Reg
	val  float64
	land int64 // landing cycle (FPU results only)
}

// CellRegs is a cell's register file with the writes in flight: the
// landing model both executors step a word through, writes landing late
// exactly as in hardware.  A word issuing at cycle t reads the registers
// as they stand (sends, stores, FPU fields, whose results it puts in
// flight with PushAt) and Holds its receives, loads and moves.  Land(t+1),
// Commit and the word's literal end the cycle: the earlier words' FPU
// results due by t+1, the held writes in field order (queue fields,
// memory ports, one-cycle ALU results), then the literal — the machine's
// (landing cycle, issue order), same-cycle write-after-write included.
type CellRegs struct {
	R [NumRegs]float64
	// FPU results in flight, oldest at head: all have the same latency, so
	// they land in the order they were issued.
	fifo       [FPUSlots]regWrite
	head, tail uint
	// The word's one-cycle writes, in room for a well-formed word's (two
	// receives, the loads, three ALU results; a malformed word grows it).
	held    []regWrite
	heldBuf [2 + MemPorts + 3]regWrite
}

// Reset empties the register file and the writes in flight.  A CellRegs
// must not be copied after it.
func (r *CellRegs) Reset() {
	*r = CellRegs{}
	r.held = r.heldBuf[:0]
}

// Hold holds a one-cycle write back to the end of the word's cycle.
func (r *CellRegs) Hold(reg Reg, v float64) { r.held = append(r.held, regWrite{reg: reg, val: v}) }

// PushAt puts an FPU result v for reg in flight, landing at cycle land.
// Results must be pushed in landing order.
func (r *CellRegs) PushAt(reg Reg, v float64, land int64) {
	r.fifo[r.tail%FPUSlots] = regWrite{reg: reg, val: v, land: land}
	r.tail++
}

// Land applies the FPU results that land by cycle t.
func (r *CellRegs) Land(t int64) {
	for r.head != r.tail && r.fifo[r.head%FPUSlots].land <= t {
		w := &r.fifo[r.head%FPUSlots]
		r.R[w.reg] = w.val
		r.head++
	}
}

// Commit applies the held writes of the word's cycle in the order they
// were held, leaving an empty buffer alone.
func (r *CellRegs) Commit() {
	if len(r.held) == 0 {
		return
	}
	for _, h := range r.held {
		r.R[h.reg] = h.val
	}
	r.held = r.held[:0]
}

// maxHeld is room for a well-formed word's one-cycle writes, as in
// CellRegs: two receives, the loads and three ALU results.
const maxHeld = 2 + MemPorts + 3

// LaneRegWords counts the values one lane of a LaneRegs holds: its
// registers, its FPU results in flight and a word's one-cycle writes.
const LaneRegWords = NumRegs + FPUSlots + maxHeld

// LaneRegs is CellRegs n lanes wide, the landing model of a batched walk:
// register g of lane l at r[g·n+l], each write in flight n values.  A
// word steps it as it steps CellRegs, except that Hold and PushAt return
// the lanes of the write for the caller to fill, so the writes land in
// the same (landing cycle, issue order).  A LaneRegs must not be copied
// after Reset.
type LaneRegs struct {
	n    int
	r    []float64
	fifo [FPUSlots]struct {
		reg  Reg
		land int64
	}
	fifoVals   []float64 // FIFO slot s's values at fifoVals[s·n:]
	head, tail uint
	held       []Reg // the word's one-cycle writes, k's values at heldVals[k·n:]
	heldBuf    [maxHeld]Reg
	heldVals   []float64
}

// Reset empties n register files over vals, LaneRegWords·n values.
func (r *LaneRegs) Reset(n int, vals []float64) {
	regs, fifo := NumRegs*n, (NumRegs+FPUSlots)*n
	*r = LaneRegs{n: n, r: vals[:regs:regs], fifoVals: vals[regs:fifo:fifo], heldVals: vals[fifo:]}
	clear(r.r)
	r.held = r.heldBuf[:0]
}

// Lanes returns register g of every lane.
func (r *LaneRegs) Lanes(g Reg) []float64 { return r.r[int(g)*r.n:][:r.n] }

// Hold holds a one-cycle write to g back to the end of the word's cycle.
// A malformed word with more of them than a well-formed one grows the
// buffer.
func (r *LaneRegs) Hold(g Reg) []float64 {
	k := len(r.held)
	r.held = append(r.held, g)
	if len(r.heldVals) < (k+1)*r.n {
		r.heldVals = append(r.heldVals, make([]float64, r.n)...)
	}
	return r.heldVals[k*r.n:][:r.n]
}

// PushAt puts an FPU result for g in flight, landing at cycle land, and
// returns its lanes.
func (r *LaneRegs) PushAt(g Reg, land int64) []float64 {
	s := r.tail % FPUSlots
	r.fifo[s].reg, r.fifo[s].land = g, land
	r.tail++
	return r.fifoVals[int(s)*r.n:][:r.n]
}

// Exec runs an FPU or move op of the word issuing at cycle t against the
// registers as they stand: a move is held, the rest land FPULatency
// later.  A fault names its lane (AluOp.EvalBatch).
func (r *LaneRegs) Exec(o *Op, t int64) error {
	if o.Kind == OpMov {
		copy(r.Hold(Reg(o.Dst)), r.Lanes(Reg(o.A)))
		return nil
	}
	f := o.Alu()
	return f.EvalBatch(r.PushAt(f.Dst, t+FPULatency), r.r, r.n)
}

// Land applies the FPU results that land by cycle t.
func (r *LaneRegs) Land(t int64) {
	for ; r.head != r.tail && r.fifo[r.head%FPUSlots].land <= t; r.head++ {
		s := r.head % FPUSlots
		copy(r.Lanes(r.fifo[s].reg), r.fifoVals[int(s)*r.n:][:r.n])
	}
}

// Commit applies the held writes of the word's cycle in the order they
// were held.
func (r *LaneRegs) Commit() {
	for k, g := range r.held {
		copy(r.Lanes(g), r.heldVals[k*r.n:][:r.n])
	}
	r.held = r.held[:0]
}

// Set writes v to register g of every lane: the word's literal.
func (r *LaneRegs) Set(g Reg, v float64) {
	dst := r.Lanes(g)
	for l := range dst {
		dst[l] = v
	}
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

// IUCode is a decoded IU program, indexed by IU µPC (listing order).
type IUCode struct {
	Words []IUWord
	Depth int
}

// DecodeIU flattens the IU program the same way.  IU loops carry no
// signals of their own; they simply repeat their static trip count.
func DecodeIU(p *IUProgram) (IUCode, error) {
	code := IUCode{Words: make([]IUWord, 0, p.NumInstrs())}
	var empty error
	// A loop body's value is its first word.
	Fold(p.Items, 0, func(head int, in *IUInstr, s *IUSite) int {
		code.Words = append(code.Words, IUWord{IUInstr: in, Depth: len(s.Loops)})
		return head
	}, func(int, *IULoop, *IUSite) int { return len(code.Words) }, func(v int, l *IULoop, s *IUSite, _ int64, head int) int {
		n := len(code.Words)
		if n == head {
			empty = cmp.Or(empty, fmt.Errorf("loop L%d has an empty body", l.ID))
			return v
		}
		code.Depth = max(code.Depth, len(s.Loops)+1)
		code.Words[n-1].Ends = append(code.Words[n-1].Ends, LoopEnd{ID: l.ID, Trips: l.Trips, Head: head})
		return v
	})
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

// IURegs is the IU's register file.
type IURegs [IUNumRegs]int64

// IUOutput is what one IU word sends toward cell 0: its addresses in
// port order, Over the index among them of the first one read past the
// end of the table (as 0) or -1, and its loop signal, if Sig.  Step fills
// one the caller keeps: returning it costs a tenth of a simulated cycle.
type IUOutput struct {
	Adr        [MemPorts]int64
	NAdr, Over int
	Sig, More  bool
	SigID      int
}

// Step executes the IU word at s.PC, moves s past it and fills out with
// what the word emits, reading the table from entry *reads on: the one
// definition of an IU cycle, which the simulator steps and Elaborate
// runs.  Every read of the cycle is done before either register write
// lands (the writes are visible the next cycle); when the immediate and the adder field write the same
// register, the adder's result is the one that stays.
func (r *IURegs) Step(c *IUCode, s *Seq, table []int64, reads *int, out *IUOutput) {
	in := &c.Words[s.PC]
	// The current iteration of the innermost enclosing IU loop.
	var iter int64
	if in.Depth > 0 {
		iter = s.Iter[in.Depth-1]
	}
	s.Advance(in.Depth, in.Ends)
	out.NAdr, out.Over, out.Sig = 0, -1, false
	for _, o := range in.Out {
		switch {
		case o == nil:
			continue
		case !o.FromTable:
			out.Adr[out.NAdr] = r[o.Src]
		case *reads < len(table):
			out.Adr[out.NAdr] = table[*reads]
		default:
			out.Adr[out.NAdr] = 0
			if out.Over < 0 {
				out.Over = out.NAdr
			}
		}
		if o.FromTable {
			*reads++
		}
		out.NAdr++
	}
	if sig := in.Sig; sig != nil {
		out.Sig, out.SigID, out.More = true, sig.LoopID, sig.Continue
		if !sig.Static {
			// The termination decision the IU's counter work pays for
			// (§6.3.1): cell iteration iter·M + Copy of CellTrips.
			out.More = iter*sig.M+sig.Copy < sig.CellTrips-1
		}
	}
	var sum int64
	if alu := in.Alu; alu != nil {
		a, b := r[alu.A], alu.ImmVal
		if !alu.BIsImm {
			b = r[alu.B]
		}
		sum = a + b
		if alu.Sub {
			sum = a - b
		}
	}
	if in.Imm != nil {
		r[in.Imm.Dst] = in.Imm.Value
	}
	if in.Alu != nil {
		r[in.Alu.Dst] = sum
	}
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

// IUTrace is everything the IU emits over one run: what the tests hold
// the verifier's IU proofs and the simulator's IU to.
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

// Elaborate runs the IU register machine over the decoded program and
// returns the streams it emits, one Step a word: the test oracle of the
// verifier's IU proofs, which derive the same streams from the IU loop
// tree.  The IU's arithmetic is input-independent — immediates, an adder
// and a pre-stored table — so this is the machine's exact behaviour, not
// an approximation.  A run of idle words is crossed in one step.  done is
// false when the program runs past limit cycles; the trace then holds
// only what was emitted so far.
func (c IUCode) Elaborate(table []int64, limit int64) (tr *IUTrace, done bool) {
	tr = &IUTrace{OverRead: -1}
	var regs IURegs
	var out IUOutput
	s := Seq{Iter: make([]int64, c.Depth)}
	for s.PC < len(c.Words) {
		if tr.Cycles >= limit {
			return tr, false
		}
		t, pc := tr.Cycles, s.PC
		if run := c.Words[pc].Run; run > 0 {
			n := min(int64(run), limit-t)
			s.PC += int(n)
			tr.Cycles += n
			continue
		}
		regs.Step(&c, &s, table, &tr.TableReads, &out)
		if out.Over >= 0 && tr.OverRead < 0 {
			tr.OverRead = len(tr.Adr) + out.Over
		}
		for _, v := range out.Adr[:out.NAdr] {
			tr.Adr = append(tr.Adr, AdrEvent{Val: v, At: t, PC: pc})
		}
		if out.Sig {
			tr.Sigs = append(tr.Sigs, SigEvent{ID: out.SigID, More: out.More, At: t, PC: pc})
		}
		tr.Cycles++
	}
	return tr, true
}
