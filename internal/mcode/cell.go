// Package mcode defines the microinstruction words executed by the Warp
// cells and the interface unit, shared between the code generators and
// everything that runs or checks their output.  It also holds the one
// executable model of the machine those consumers step (flat.go: the
// decoded programs, the sequencer, the static IU elaboration; lower.go:
// the one op stream a word's fields lower to; AluOp.Eval below: the
// cell's arithmetic), so the simulator, the fast executor and the
// verifier cannot drift apart on what an instruction means.
//
// A Warp cell (Figure 2-2 of the paper) is a horizontal microengine:
// every functional unit is controlled by its own field of a wide
// instruction word, all units issue in the same cycle, and the two
// floating-point units are 5-stage pipelined.  We model:
//
//   - ADD unit: floating add/sub/neg, comparisons, boolean connectives
//     and select (pipelined, latency FPULatency);
//   - MUL unit: floating mul/div (same latency);
//   - two memory ports (the cell can make two data-memory references per
//     cycle, §2.2), each taking its address from the Adr queue;
//   - queue ports: receive/send on channel X and Y;
//   - a literal field writing an immediate into a register.
//
// One simplification relative to the hardware: the two 32-word
// register files (one per FPU) and the crossbar are modelled as a
// single 64-word register file reachable by every unit.  This preserves
// the scheduling structure (register pressure, unit parallelism, result
// latency) without modelling crossbar port assignment.
package mcode

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"warp/internal/w2"
)

// Architectural parameters of the Warp cell.
const (
	// FPULatency is the pipeline depth of each floating-point unit:
	// a result issued at cycle t may be consumed at t+FPULatency.
	FPULatency = 5
	// NumRegs is the size of the (unified) cell register file.
	NumRegs = 64
	// QueueDepth is the hardware queue size per channel (words).
	QueueDepth = 128
	// MemWords is the cell data memory size (4K words).
	MemWords = 4096
	// MemPorts is the number of data-memory references per cycle.
	MemPorts = 2
)

// Reg is a cell register number.
type Reg int

func (r Reg) String() string { return fmt.Sprintf("r%d", r) }

// AluCode selects the operation of an FPU field.
type AluCode int

// ALU operation codes.  Fadd..Fneg and the comparisons/booleans/select
// execute on the ADD unit; Fmul and Fdiv on the MUL unit.
const (
	Fadd AluCode = iota
	Fsub
	Fneg
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	BoolAnd
	BoolOr
	BoolNot
	Sel
	// Mov is a crossbar register-to-register move (latency 1); it is
	// issued on the ADD unit's field but bypasses the FPU pipeline.
	Mov
	Fmul
	Fdiv
)

var aluNames = [...]string{
	Fadd: "fadd", Fsub: "fsub", Fneg: "fneg",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", CmpLE: "cmple",
	CmpGT: "cmpgt", CmpGE: "cmpge",
	BoolAnd: "and", BoolOr: "or", BoolNot: "not", Sel: "sel", Mov: "mov",
	Fmul: "fmul", Fdiv: "fdiv",
}

func (c AluCode) String() string { return aluNames[c] }

// NumOperands returns how many register operands the code reads.
func (c AluCode) NumOperands() int {
	switch c {
	case Fneg, BoolNot, Mov:
		return 1
	case Sel:
		return 3
	}
	return 2
}

// Latency returns the cycles until the result register is readable.
func (c AluCode) Latency() int64 {
	if c == Mov {
		return 1
	}
	return FPULatency
}

// OnMulUnit reports whether the code executes on the MUL unit.
func (c AluCode) OnMulUnit() bool { return c == Fmul || c == Fdiv }

// AluOp is one FPU field: dst ← code(src...).
type AluOp struct {
	Code AluCode
	Dst  Reg
	Src  [3]Reg // Src[0..NumOperands-1] are meaningful
}

// Eval computes the field's result over the cell register file: the one
// definition of the cell's arithmetic, shared by both executors.
// Booleans are 0 and 1, and any non-zero operand counts as true.  A
// floating divide by zero is a machine fault, returned as an error.
func (o *AluOp) Eval(regs *[NumRegs]float64) (float64, error) {
	return eval(o.Code, regs, o.Src[0], o.Src[1], o.Src[2])
}

// eval is Eval of code over the source registers src0, src1 and src2
// (src2 read only by Sel).
func eval(code AluCode, regs *[NumRegs]float64, src0, src1, src2 Reg) (float64, error) {
	a := regs[src0]
	b := regs[src1]
	switch code {
	case Fadd:
		return a + b, nil
	case Fsub:
		return a - b, nil
	case Fneg:
		return -a, nil
	case Fmul:
		return a * b, nil
	case Fdiv:
		if b == 0 {
			return 0, fmt.Errorf("floating divide by zero")
		}
		return a / b, nil
	case CmpEQ:
		return boolToF(a == b), nil
	case CmpNE:
		return boolToF(a != b), nil
	case CmpLT:
		return boolToF(a < b), nil
	case CmpLE:
		return boolToF(a <= b), nil
	case CmpGT:
		return boolToF(a > b), nil
	case CmpGE:
		return boolToF(a >= b), nil
	case BoolAnd:
		return boolToF(a != 0 && b != 0), nil
	case BoolOr:
		return boolToF(a != 0 || b != 0), nil
	case BoolNot:
		return boolToF(a == 0), nil
	case Sel:
		if a != 0 {
			return b, nil
		}
		return regs[src2], nil
	case Mov:
		return a, nil
	default:
		return 0, fmt.Errorf("unknown ALU code %v", code)
	}
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// EvalBatch is Eval over n register files at once, register r of file l
// at regs[r·n+l]: dst[l] receives file l's result.  The arithmetic codes
// dispatch once, outside the lane loop; the rest go through Eval itself,
// lane by lane, so they cannot differ from it — and a fault (a divide by
// zero) names the first lane it is in.
func (o *AluOp) EvalBatch(dst, regs []float64, n int) error {
	dst = dst[:n]
	a, b := regs[int(o.Src[0])*n:][:n], regs[int(o.Src[1])*n:][:n]
	switch o.Code {
	case Fadd:
		for l := range dst {
			dst[l] = a[l] + b[l]
		}
	case Fsub:
		for l := range dst {
			dst[l] = a[l] - b[l]
		}
	case Fmul:
		for l := range dst {
			dst[l] = a[l] * b[l]
		}
	case Mov:
		copy(dst, a)
	default:
		c := a
		if o.Code == Sel {
			c = regs[int(o.Src[2])*n:][:n]
		}
		var file [NumRegs]float64
		lane := AluOp{Code: o.Code, Src: [3]Reg{0, 1, 2}}
		for l := range dst {
			file[0], file[1], file[2] = a[l], b[l], c[l]
			v, err := lane.Eval(&file)
			if err != nil {
				return fmt.Errorf("%w in lane %d", err, l)
			}
			dst[l] = v
		}
	}
	return nil
}

func (o *AluOp) String() string {
	ops := make([]string, o.Code.NumOperands())
	for i := range ops {
		ops[i] = o.Src[i].String()
	}
	return fmt.Sprintf("%s %s <- %s", o.Code, o.Dst, strings.Join(ops, ","))
}

// MemOp is one memory-port field.  The address is popped from the Adr
// queue (addresses are generated on the IU, §2.2); the AddrInfo
// metadata records what the IU must produce for this reference.
type MemOp struct {
	Kind uint8 // MemNone (the port is idle), MemLoad or MemStore
	Reg  Reg   // destination (load) or source (store)
	Addr AddrInfo
}

func (o *MemOp) String() string {
	if o.Kind == MemStore {
		return fmt.Sprintf("store [adr] <- %s  ; %s", o.Reg, o.Addr)
	}
	return fmt.Sprintf("load %s <- [adr]  ; %s", o.Reg, o.Addr)
}

// AddrInfo describes the address the IU must generate for one memory
// reference or one host binding: Base + Affine evaluated at the current
// loop indices, ShiftLoop's index shifted by Shift (software pipelining
// moves operations across iteration boundaries of one loop).
type AddrInfo struct {
	Sym       *w2.Symbol
	Base      int
	Affine    w2.Affine
	Shift     int64       // iteration offset of ShiftLoop's index
	ShiftLoop *w2.ForStmt // the loop Shift applies to
}

func (a AddrInfo) String() string {
	s := fmt.Sprintf("%s+%s", a.Sym.Name, a.Affine)
	if a.Shift != 0 {
		s += fmt.Sprintf(" [%s%+d]", a.ShiftLoop.Var, a.Shift)
	}
	return s
}

// Shifted returns the affine address with ShiftLoop's index i replaced by
// i+Shift, folding the shift into the constant term.
func (a AddrInfo) Shifted() w2.Affine {
	if a.Shift == 0 {
		return a.Affine
	}
	return w2.Affine{Const: a.Affine.Const + a.Affine.Coef(a.ShiftLoop)*a.Shift, Terms: a.Affine.Terms}
}

// CountAddrExprs counts the distinct address expressions among the
// memory references of items, loop bodies included, stopping at limit.
// Two references share an expression when they name the same array and
// their shifted addresses have the same constant and the same terms in
// order, loops compared by variable name.  The cell code generator pads
// a cycle per expression the IU can hold and the IU code generator
// sizes its unroll factor by them.
func CountAddrExprs(items []CodeItem, limit int) int {
	seen, _ := Fold(items, make([]addrExpr, 0, limit), addAddrExprs, nil, nil)
	return len(seen)
}

// addrExpr is one address expression: an array and a shifted address.
type addrExpr struct {
	name string
	aff  w2.Affine
}

// addAddrExprs appends to seen the address expressions of in it does not
// hold yet, while it has capacity.
func addAddrExprs(seen []addrExpr, in *Instr, _ *CellSite) []addrExpr {
refs:
	for i := range in.Mem {
		m := &in.Mem[i]
		if m.Kind == MemNone || len(seen) == cap(seen) {
			continue
		}
		e := addrExpr{m.Addr.Sym.Name, m.Addr.Shifted()}
		for _, s := range seen {
			if e.aff.Const == s.aff.Const && e.name == s.name && slices.EqualFunc(e.aff.Terms, s.aff.Terms, func(t, u w2.AffTerm) bool {
				return t.Coef == u.Coef && t.Var.Var == u.Var.Var
			}) {
				continue refs
			}
		}
		seen = append(seen, e)
	}
	return seen
}

// LoopTerm is one term of a bound address: Coef per iteration of the
// enclosing loop at nesting depth Depth (0 = outermost).
type LoopTerm struct {
	Coef  int64
	Depth int
}

// BoundAddr is an address as a function of the iteration numbers of the
// loops around it: Start + Σ Coef·iteration[Depth], within Lo..Hi over
// all their iterations.
type BoundAddr struct {
	Start  int64
	Terms  []LoopTerm
	Lo, Hi int64
}

// Bind folds the pipelining shift into the constant term (Shifted) and
// binds each remaining affine term to the innermost of the enclosing
// loops (outermost first) with the matching source statement, turning
// coef·(First + Step·iteration) into a constant and a per-iteration
// coefficient: the one resolution of an address against a loop nest,
// shared by the host program and the decoded cell program.  The terms
// are appended to terms (nil for a slice of their own).  Every product
// and sum is exact: an address whose range leaves 64 bits is refused.
func (a *AddrInfo) Bind(loops []*LoopItem, terms []LoopTerm) (BoundAddr, error) {
	aff := a.Shifted()
	start, ok := AddOK(int64(a.Base), aff.Const)
	b := BoundAddr{Start: start, Terms: terms, Lo: start, Hi: start}
	for _, t := range aff.Terms {
		depth := len(loops) - 1
		for depth >= 0 && loops[depth].Src != t.Var {
			depth--
		}
		if depth < 0 {
			return BoundAddr{}, fmt.Errorf("%s references loop %s outside its scope", a, t.Var.Var)
		}
		// A loop of fewer than one trip runs once, at First.
		l := loops[depth]
		first, ok1 := MulOK(t.Coef, l.First)
		step, ok2 := MulOK(t.Coef, l.Step)
		span, ok3 := MulOK(step, max(l.Trips, 1)-1)
		last, ok4 := AddOK(first, span)
		var ok5, ok6, ok7 bool
		b.Start, ok5 = AddOK(b.Start, first)
		b.Lo, ok6 = AddOK(b.Lo, min(first, last))
		b.Hi, ok7 = AddOK(b.Hi, max(first, last))
		if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7) {
			ok = false
			break
		}
		b.Terms = append(b.Terms, LoopTerm{Coef: step, Depth: depth})
	}
	if !ok {
		return BoundAddr{}, fmt.Errorf("%s: the address range overflows 64 bits", a)
	}
	return b, nil
}

// MulOK returns a·b and whether it fits an int64.
func MulOK(a, b int64) (int64, bool) {
	c := a * b
	return c, a == 0 || c/a == b && !(a == -1 && b == math.MinInt64)
}

// AddOK returns a+b and whether it fits an int64.
func AddOK(a, b int64) (int64, bool) {
	c := a + b
	return c, (a^c)&(b^c) >= 0
}

// IOOp is a queue-port field: a receive writes the popped word to Dst;
// a send pushes Src.
type IOOp struct {
	Dir  w2.Direction
	Chan w2.Channel
	Reg  Reg
	// Ext is the host binding for boundary cells (Ext.Sym nil: none).
	// When the external is a literal, Literal supplies the value.
	Ext             AddrInfo
	IsLiteral, Recv bool
	Literal         float64
}

func (o *IOOp) String() string {
	if o.Recv {
		return fmt.Sprintf("recv %s <- %s.%s", o.Reg, o.Dir, o.Chan)
	}
	return fmt.Sprintf("send %s.%s <- %s", o.Dir, o.Chan, o.Reg)
}

// LitOp writes an immediate into a register.
type LitOp struct {
	Dst   Reg
	Value float64
}

func (o *LitOp) String() string { return fmt.Sprintf("lit %s <- %g", o.Dst, o.Value) }

// Fields is the fixed-field block of one wide microinstruction, each
// unit's field with its presence bit: the block the code generator writes
// and Decode lowers into ops.  Mov is a dedicated
// crossbar register-move field: the full crossbar of Figure 2-2 can route
// one register to another without passing through an FPU, so moves do
// not compete with arithmetic.
type Fields struct {
	HasAdd, HasMul, HasMov, HasLit bool
	Add, Mul                       AluOp
	Mov                            AluOp // a crossbar move: its Code is Mov
	Lit                            LitOp
}

// Instr is one wide microinstruction: all its fields issue in the same
// cycle.  A memory port issues unless its Kind is MemNone.
type Instr struct {
	Fields
	Mem [MemPorts]MemOp
	IO  []IOOp // at most one per (direction, channel, recv/send) port

	// Pos is the W2 source position of the statement this instruction
	// primarily executes (the first field placed into the word claims it;
	// zero for scheduled nops and synthetic preamble/pad cycles): the debug
	// information carried alongside the microcode.  The instruction's µPC
	// is its index in WalkInstrs order.
	Pos w2.Pos
}

// Empty reports whether the instruction is a no-op.
func (in *Instr) Empty() bool {
	if in.HasAdd || in.HasMul || in.HasMov || in.HasLit || len(in.IO) > 0 {
		return false
	}
	for i := range in.Mem {
		if in.Mem[i].Kind != MemNone {
			return false
		}
	}
	return true
}

func (in *Instr) String() string {
	var parts []string
	if in.HasAdd {
		parts = append(parts, in.Add.String())
	}
	if in.HasMul {
		parts = append(parts, in.Mul.String())
	}
	if in.HasMov {
		parts = append(parts, in.Mov.String())
	}
	for i := range in.Mem {
		if m := &in.Mem[i]; m.Kind != MemNone {
			parts = append(parts, m.String())
		}
	}
	for i := range in.IO {
		parts = append(parts, in.IO[i].String())
	}
	if in.HasLit {
		parts = append(parts, in.Lit.String())
	}
	if len(parts) == 0 {
		return "nop"
	}
	return strings.Join(parts, " | ")
}

// CellProgram is the complete microprogram of one cell.
type CellProgram struct {
	Items []CodeItem
}

// Cycles returns the total execution time of the program.  It panics
// with the *OverflowError on a program CountCell refuses (the compiler
// refuses it first).
func (p *CellProgram) Cycles() int64 {
	c, err := CountCell(p)
	if err != nil {
		panic(err)
	}
	return c.Cycles
}

// WalkInstrs visits every static microinstruction of items in µPC
// order, passing the stack of enclosing loops outermost-first: the Fold
// of an instruction-at-a-time pass.  An instruction's µPC is its index in
// this walk, which Decode, NumInstrs and the profiler's debug map all
// count, so a µPC indexes the same instruction everywhere.
func WalkInstrs(items []CodeItem, visit func(in *Instr, loops []*LoopItem)) {
	Fold(items, struct{}{}, func(v struct{}, in *Instr, s *CellSite) struct{} {
		visit(in, s.Loops)
		return v
	}, nil, nil)
}

// MemAddr returns the address memory port port of the decoded word w
// names: a walk to its instruction, for diagnostics.
func (p *CellProgram) MemAddr(w *Word, port int) (a AddrInfo) {
	pc := int(w.PC) + int(w.Skip)
	WalkInstrs(p.Items, func(in *Instr, _ []*LoopItem) {
		if pc == 0 {
			a = in.Mem[port].Addr
		}
		pc--
	})
	return a
}

// NumInstrs counts static microinstructions (the paper's "cell µcode"
// length metric of Table 7-1).
func (p *CellProgram) NumInstrs() int { return numInstrs(p.Items) }

// Listing renders the program as an annotated microcode listing.
func (p *CellProgram) Listing() string {
	var sb strings.Builder
	listing(&sb, p.Items)
	return sb.String()
}
