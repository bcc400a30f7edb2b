package mcode

import (
	"fmt"
	"math"

	"warp/internal/w2"
)

// This file provides structural validation of generated microprograms:
// the machine invariants every code generator must respect.  The verifier
// runs these validators on every compile (verify.Verify's structure check).

// ValidateCell checks the structural invariants of a cell microprogram:
//
//   - registers within the file;
//   - at most one queue operation per port per instruction;
//   - the Mov field carries only Mov operations, Add no MUL-unit codes
//     and vice versa;
//   - loops have positive trip counts and nonempty bodies;
//   - its closed-form counts fit in 64 bits (CountCell).
func ValidateCell(p *CellProgram) error {
	if _, err := CountCell(p); err != nil {
		return err
	}
	err, _ := Fold(p.Items, error(nil), func(err error, in *Instr, s *CellSite) error {
		if err == nil {
			if err = validateInstr(in); err != nil {
				err = fmt.Errorf("instruction %d: %w", s.Index, err)
			}
		}
		return err
	}, nil, func(err error, l *LoopItem, _ *CellSite, _ int64, body error) error {
		switch {
		case err != nil:
			return err
		case l.Trips < 1:
			return fmt.Errorf("loop L%d: %d trips", l.ID, l.Trips)
		case len(l.Body) == 0 || numInstrs(l.Body) == 0:
			return fmt.Errorf("loop L%d: empty body", l.ID)
		case body != nil:
			return fmt.Errorf("loop L%d: %w", l.ID, body)
		}
		return nil
	})
	return err
}

func regOK(r Reg) bool { return r >= 0 && r < NumRegs }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func validateInstr(in *Instr) error {
	checkAlu := func(on bool, op *AluOp, field string) error {
		if !on {
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
	if err := checkAlu(in.HasAdd, &in.Add, "add"); err != nil {
		return err
	}
	if err := checkAlu(in.HasMul, &in.Mul, "mul"); err != nil {
		return err
	}
	if err := checkAlu(in.HasMov, &in.Mov, "mov"); err != nil {
		return err
	}
	var seen uint8 // the queue ports in use, port recv | channel<<1 | direction<<2
	for i := range in.IO {
		io := &in.IO[i]
		port := b2i(io.Recv) | b2i(io.Chan != w2.ChanX)<<1 | b2i(io.Dir != w2.DirL)<<2
		if seen>>port&1 != 0 {
			return fmt.Errorf("two operations on one queue port in a cycle")
		}
		seen |= 1 << port
		if !regOK(io.Reg) {
			return fmt.Errorf("queue operation register %s out of range", io.Reg)
		}
	}
	for i := range in.Mem {
		if m := &in.Mem[i]; m.Kind != MemNone && !regOK(m.Reg) {
			return fmt.Errorf("memory operation register %s out of range", m.Reg)
		}
	}
	if in.HasLit && !regOK(in.Lit.Dst) {
		return fmt.Errorf("literal destination %s out of range", in.Lit.Dst)
	}
	return nil
}

// CellCounts are the closed-form counts of one run of a cell program.
type CellCounts struct {
	Cycles  int64
	Ops     int64 // non-empty instructions executed
	AdrPops int64 // memory references = addresses consumed
	Signals int64 // loop boundaries = control signals consumed
	// Field issues: FPU and move fields, loads and stores.
	AddOps, MulOps, MovOps int64
	Loads, Stores          int64
	Recv, Send             [2]int64 // queue fields, indexed by w2.Channel
}

// CountCell computes the counts in one fold of the structure, a loop
// counted max(Trips, 1) times as the sequencer runs it, every product
// over trip counts checked: a count that overflows 64 bits is an
// *OverflowError naming the loop.  A block's counts are added at once,
// the cycle count first, and so are a loop's: which count an overflow
// names depends on it.
func CountCell(p *CellProgram) (CellCounts, error) { return countCell(p.Items) }

func countCell(items []CodeItem) (CellCounts, error) {
	var err error // the first overflow
	c, _ := Fold(items, CellCounts{}, func(c CellCounts, _ *Instr, s *CellSite) CellCounts {
		if s.Index > 0 || err != nil {
			return c
		}
		add := CellCounts{Cycles: int64(len(s.Block.Instrs))}
		for _, in := range s.Block.Instrs {
			if !in.Empty() {
				add.Ops++
			}
			for i := range in.Mem {
				switch in.Mem[i].Kind {
				case MemLoad:
					add.AdrPops++
					add.Loads++
				case MemStore:
					add.AdrPops++
					add.Stores++
				}
			}
			for i := range in.IO {
				if io := &in.IO[i]; io.Recv {
					add.Recv[io.Chan]++
				} else {
					add.Send[io.Chan]++
				}
			}
			add.AddOps += b2i(in.HasAdd)
			add.MulOps += b2i(in.HasMul)
			add.MovOps += b2i(in.HasMov)
		}
		err = addTimes(c.fields(), add.fields(), 1, s.loop())
		return c
	}, func(CellCounts, *LoopItem, *CellSite) CellCounts { return CellCounts{} },
		func(c CellCounts, l *LoopItem, _ *CellSite, _ int64, body CellCounts) CellCounts {
			if err == nil {
				body.Signals++
				err = addTimes(c.fields(), body.fields(), l.Trips, l.ID)
			}
			return c
		})
	return c, err
}

func (c *CellCounts) fields() []*int64 {
	return []*int64{&c.Cycles, &c.Ops, &c.AdrPops, &c.Signals, &c.AddOps, &c.MulOps, &c.MovOps,
		&c.Loads, &c.Stores, &c.Recv[0], &c.Recv[1], &c.Send[0], &c.Send[1]}
}

// addTimes adds trips times each count of src to the same count of dst,
// the cycle count first, inside the loop with the given ID.  A trip
// count below one counts once: the sequencer's loops are do-while.
func addTimes(dst, src []*int64, trips int64, loop int) error {
	trips = max(trips, 1)
	for i, d := range dst {
		v, ok := MulAdd(*d, *src[i], trips)
		if !ok {
			return &OverflowError{Loop: loop, Cycles: i == 0}
		}
		*d = v
	}
	return nil
}

// OverflowError is a program whose cycle count, or one of its event
// counts, does not fit in 64 bits: the count overflows at loop Loop, or
// in the sum of the top-level items (Loop -1).
type OverflowError struct {
	Loop   int
	Cycles bool // the cycle count, not an event count
}

func (e *OverflowError) Error() string {
	what := "an event"
	if e.Cycles {
		what = "the cycle"
	}
	if e.Loop < 0 {
		return fmt.Sprintf("%s count overflows 64 bits", what)
	}
	return fmt.Sprintf("loop L%d: %s count overflows 64 bits", e.Loop, what)
}

// MulAdd returns acc + n·trips and whether it fits in int64: the one
// checked multiply behind every closed-form count over trip counts —
// cycles and events of the cell and IU programs, and skew.Seal's totals.
func MulAdd(acc, n, trips int64) (int64, bool) {
	p := n * trips
	if trips != 1 && n != 0 && (p/n != trips || n == -1 && trips == math.MinInt64) {
		return 0, false
	}
	s := acc + p
	return s, (s > acc) == (p > 0) || p == 0
}

// ValidateIU checks the structural invariants of an IU microprogram:
// registers within the 16-register file, positive trip counts, counts
// that fit in 64 bits (CountIU), and no multiplications (true by
// construction — the instruction set has none).
func ValidateIU(p *IUProgram) error {
	if _, err := CountIU(p); err != nil {
		return err
	}
	err, _ := Fold(p.Items, error(nil), func(err error, in *IUInstr, _ *IUSite) error {
		if err == nil {
			err = validateIUInstr(in)
		}
		return err
	}, nil, func(err error, l *IULoop, _ *IUSite, _ int64, body error) error {
		if err == nil && l.Trips < 1 {
			return fmt.Errorf("IU loop L%d: %d trips", l.ID, l.Trips)
		}
		return body
	})
	return err
}

func validateIUInstr(in *IUInstr) error {
	iuRegOK := func(r IUReg) bool { return r >= 0 && r < IUNumRegs }
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
	return nil
}

// IUCounts are the closed-form counts of one run of an IU program.
type IUCounts struct {
	Cycles    int64
	AdrOuts   int64
	TableOuts int64
	Signals   int64
}

// CountIU computes the counts in one fold, checked as CountCell's are.
func CountIU(p *IUProgram) (IUCounts, error) { return countIU(p.Items) }

func countIU(items []IUItem) (IUCounts, error) {
	var err error // the first overflow
	c, _ := Fold(items, IUCounts{}, func(c IUCounts, _ *IUInstr, s *IUSite) IUCounts {
		if s.Index > 0 || err != nil {
			return c
		}
		add := IUCounts{Cycles: int64(len(s.Block.Instrs))}
		for _, in := range s.Block.Instrs {
			for _, o := range in.Out {
				if o == nil {
					continue
				}
				add.AdrOuts++
				if o.FromTable {
					add.TableOuts++
				}
			}
			if in.Sig != nil {
				add.Signals++
			}
		}
		err = addTimes(c.fields(), add.fields(), 1, s.loop())
		return c
	}, func(IUCounts, *IULoop, *IUSite) IUCounts { return IUCounts{} },
		func(c IUCounts, l *IULoop, _ *IUSite, _ int64, body IUCounts) IUCounts {
			if err == nil {
				err = addTimes(c.fields(), body.fields(), l.Trips, l.ID)
			}
			return c
		})
	return c, err
}

func (c *IUCounts) fields() []*int64 {
	return []*int64{&c.Cycles, &c.AdrOuts, &c.TableOuts, &c.Signals}
}
