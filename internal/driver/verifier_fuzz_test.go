package driver

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"warp/internal/mcode"
	"warp/internal/verify"
	"warp/internal/workloads"
)

// This file is the differential soundness harness for the static
// verifier (internal/verify):
//
//   - acceptance must be sound: every program the verifier accepts must
//     simulate to completion with no queue underflow or overflow (the
//     simulator errors on both), checked over fuzzed random programs;
//   - rejection must catch corruption: seeded microcode mutations —
//     dropping a send, widening a trip count, shrinking the skew,
//     corrupting a register, truncating the IU address table, renaming
//     a loop, flipping a static loop signal, shifting a dynamic one,
//     pushing an IU immediate's addresses past the cell memory — must
//     each be rejected, and so must the in-range mutations, which leave
//     every address in the cell memory but send one that is not the
//     address its memory field names: a retargeted table entry, a
//     shifted immediate, a shifted address stride.

// verifyProgram assembles the verifier's input from a compilation,
// exactly as the driver's verify phase does.
func verifyProgram(c *Compiled) verify.Program {
	return verify.Program{
		Cells: c.Cells,
		Cell:  c.Cell,
		IU:    c.IU,
		Host:  c.Host,
		Skew:  c.Skew,
		Lead:  c.IUGen.Prologue + 1,
	}
}

// ---------------------------------------------------------------------
// Deep copies, so mutations never touch the compiled original.

func copyCellProgram(p *mcode.CellProgram) *mcode.CellProgram {
	return &mcode.CellProgram{Items: copyCellItems(p.Items)}
}

func copyCellItems(items []mcode.CodeItem) []mcode.CodeItem {
	out := make([]mcode.CodeItem, len(items))
	for i, it := range items {
		switch it := it.(type) {
		case *mcode.Straight:
			instrs := make([]*mcode.Instr, len(it.Instrs))
			for j, in := range it.Instrs {
				instrs[j] = copyInstr(in)
			}
			out[i] = &mcode.Straight{Instrs: instrs}
		case *mcode.LoopItem:
			cp := *it
			cp.Body = copyCellItems(it.Body)
			out[i] = &cp
		}
	}
	return out
}

func copyInstr(in *mcode.Instr) *mcode.Instr {
	cp := *in
	cp.IO = slices.Clone(in.IO)
	return &cp
}

func copyIUProgram(p *mcode.IUProgram) *mcode.IUProgram {
	cp := &mcode.IUProgram{Table: append([]int64(nil), p.Table...)}
	cp.Items = copyIUItems(p.Items)
	return cp
}

func copyIUItems(items []mcode.IUItem) []mcode.IUItem {
	out := make([]mcode.IUItem, len(items))
	for i, it := range items {
		switch it := it.(type) {
		case *mcode.IUStraight:
			instrs := make([]*mcode.IUInstr, len(it.Instrs))
			for j, in := range it.Instrs {
				instrs[j] = copyIUInstr(in)
			}
			out[i] = &mcode.IUStraight{Instrs: instrs}
		case *mcode.IULoop:
			cp := *it
			cp.Body = copyIUItems(it.Body)
			out[i] = &cp
		}
	}
	return out
}

func copyIUInstr(in *mcode.IUInstr) *mcode.IUInstr {
	cp := &mcode.IUInstr{CtrWork: in.CtrWork}
	if in.Alu != nil {
		c := *in.Alu
		cp.Alu = &c
	}
	if in.Imm != nil {
		c := *in.Imm
		cp.Imm = &c
	}
	for i, o := range in.Out {
		if o != nil {
			c := *o
			cp.Out[i] = &c
		}
	}
	if in.Sig != nil {
		c := *in.Sig
		cp.Sig = &c
	}
	return cp
}

// ---------------------------------------------------------------------
// Seeded mutations.  Each takes a fresh deep-copied program and applies
// one corruption, returning false when the program has no site for it.

type mutation struct {
	name  string
	apply func(p *verify.Program) bool
}

func firstLoop(items []mcode.CodeItem) *mcode.LoopItem {
	for _, it := range items {
		if l, ok := it.(*mcode.LoopItem); ok {
			return l
		}
	}
	return nil
}

func eachInstr(items []mcode.CodeItem, f func(*mcode.Instr) bool) bool {
	for _, it := range items {
		switch it := it.(type) {
		case *mcode.Straight:
			for _, in := range it.Instrs {
				if f(in) {
					return true
				}
			}
		case *mcode.LoopItem:
			if eachInstr(it.Body, f) {
				return true
			}
		}
	}
	return false
}

func eachIUInstr(items []mcode.IUItem, f func(*mcode.IUInstr) bool) bool {
	for _, it := range items {
		switch it := it.(type) {
		case *mcode.IUStraight:
			for _, in := range it.Instrs {
				if f(in) {
					return true
				}
			}
		case *mcode.IULoop:
			if eachIUInstr(it.Body, f) {
				return true
			}
		}
	}
	return false
}

var mutations = []mutation{
	{"drop-send", func(p *verify.Program) bool {
		return eachInstr(p.Cell.Items, func(in *mcode.Instr) bool {
			for i, io := range in.IO {
				if !io.Recv {
					in.IO = append(in.IO[:i], in.IO[i+1:]...)
					return true
				}
			}
			return false
		})
	}},
	{"widen-trip-count", func(p *verify.Program) bool {
		if l := firstLoop(p.Cell.Items); l != nil {
			l.Trips++
			return true
		}
		return false
	}},
	{"shrink-skew", func(p *verify.Program) bool {
		if p.Cells > 1 {
			p.Skew--
			return true
		}
		return false
	}},
	{"corrupt-register", func(p *verify.Program) bool {
		return eachInstr(p.Cell.Items, func(in *mcode.Instr) bool {
			if len(in.IO) > 0 {
				in.IO[0].Reg = mcode.NumRegs + 35
				return true
			}
			return false
		})
	}},
	{"truncate-iu-table", func(p *verify.Program) bool {
		if n := len(p.IU.Table); n > 0 {
			p.IU.Table = p.IU.Table[:n-1]
		} else {
			p.IU.Table = append(p.IU.Table, 0)
		}
		return true
	}},
	{"rename-loop", func(p *verify.Program) bool {
		if l := firstLoop(p.Cell.Items); l != nil {
			l.ID += 100
			return true
		}
		return false
	}},
	{"flip-signal", func(p *verify.Program) bool {
		return eachIUInstr(p.IU.Items, func(in *mcode.IUInstr) bool {
			if in.Sig != nil && in.Sig.Static {
				in.Sig.Continue = !in.Sig.Continue
				return true
			}
			return false
		})
	}},
	{"shift-dynamic-signal", func(p *verify.Program) bool {
		// Copy+1 says "stop" one cell iteration early: at the IU iteration
		// whose iter·M + Copy is CellTrips−2.  The first dynamic signal
		// that has such an iteration is shifted.
		var walk func(items []mcode.IUItem, trips int64) bool
		walk = func(items []mcode.IUItem, trips int64) bool {
			for _, it := range items {
				switch it := it.(type) {
				case *mcode.IUStraight:
					for _, in := range it.Instrs {
						s := in.Sig
						if s == nil || s.Static || s.M < 1 {
							continue
						}
						if k := s.CellTrips - 2 - s.Copy; k >= 0 && k%s.M == 0 && k/s.M < trips {
							s.Copy++
							return true
						}
					}
				case *mcode.IULoop:
					if walk(it.Body, it.Trips) {
						return true
					}
				}
			}
			return false
		}
		return walk(p.IU.Items, 1)
	}},
	{"address-out-of-range", func(p *verify.Program) bool {
		// The first immediate an address output reads (in listing order,
		// before anything but an induction step rewrites the register)
		// moves every address it feeds past the cell memory.
		var instrs []*mcode.IUInstr
		eachIUInstr(p.IU.Items, func(in *mcode.IUInstr) bool {
			instrs = append(instrs, in)
			return false
		})
		for i, in := range instrs {
			if in.Imm == nil || (in.Alu != nil && in.Alu.Dst == in.Imm.Dst) {
				continue
			}
			r := in.Imm.Dst
			for _, next := range instrs[i+1:] {
				for _, o := range next.Out {
					if o != nil && !o.FromTable && o.Src == r {
						in.Imm.Value += mcode.MemWords
						return true
					}
				}
				if next.Imm != nil && next.Imm.Dst == r {
					break
				}
				if a := next.Alu; a != nil && a.Dst == r && (a.A != r || (!a.BIsImm && a.B == r)) {
					break
				}
			}
		}
		return false
	}},
}

// inRangeMutations each change one IU field or table entry by one word
// so that every address the IU emits stays in the cell memory but at
// least one differs from the address its memory field names: only the
// proof of each address's value rejects them.  The IU's elaboration
// (mcode.IUCode.Elaborate) picks the first site and direction that
// does.
var inRangeMutations = []mutation{
	{"retarget-table-entry", func(p *verify.Program) bool {
		return retarget(p, func(yield func(*int64) bool) {
			for i := range p.IU.Table {
				if !yield(&p.IU.Table[i]) {
					return
				}
			}
		})
	}},
	{"shift-immediate", func(p *verify.Program) bool {
		return retarget(p, func(yield func(*int64) bool) {
			eachIUInstr(p.IU.Items, func(in *mcode.IUInstr) bool {
				return in.Imm != nil && !yield(&in.Imm.Value)
			})
		})
	}},
	{"shift-address-stride", func(p *verify.Program) bool {
		return retarget(p, func(yield func(*int64) bool) {
			eachIUInstr(p.IU.Items, func(in *mcode.IUInstr) bool {
				return in.Alu != nil && in.Alu.BIsImm && !yield(&in.Alu.ImmVal)
			})
		})
	}},
}

// allMutations is every seeded mutation, the in-range ones last.
var allMutations = slices.Concat(mutations, inRangeMutations)

// retarget moves the first of the values sites yields, by +1 or else −1,
// that keeps every address p's IU emits in the cell memory and changes
// at least one of them; false when none does.
func retarget(p *verify.Program, sites func(yield func(*int64) bool)) bool {
	want, ok := iuAddrs(p.IU)
	if !ok {
		return false
	}
	found := false
	sites(func(v *int64) bool {
		for _, d := range []int64{1, -1} {
			*v += d
			if got, ok := iuAddrs(p.IU); ok && !slices.Equal(got, want) &&
				!slices.ContainsFunc(got, func(a int64) bool { return a < 0 || a >= mcode.MemWords }) {
				found = true
				return false
			}
			*v -= d
		}
		return true
	})
	return found
}

// iuAddrs returns the addresses the IU emits, by its elaboration; false
// when it reads past its table.
func iuAddrs(iu *mcode.IUProgram) ([]int64, bool) {
	code, err := mcode.DecodeIU(iu)
	if err != nil {
		return nil, false
	}
	counts, err := mcode.CountIU(iu)
	if err != nil {
		return nil, false
	}
	tr, done := code.Elaborate(iu.Table, counts.Cycles)
	if !done || tr.OverRead >= 0 {
		return nil, false
	}
	vals := make([]int64, len(tr.Adr))
	for i, a := range tr.Adr {
		vals[i] = a.Val
	}
	return vals, true
}

// mutated builds a fresh verifier input with deep-copied programs so a
// mutation cannot leak into the compiled original (or another mutation).
func mutated(c *Compiled) *verify.Program {
	p := verifyProgram(c)
	p.Cell = copyCellProgram(c.Cell)
	p.IU = copyIUProgram(c.IU)
	return &p
}

// checkVerifierOnProgram runs the full soundness protocol on one
// compiled program: the verifier must accept it, the simulation must
// complete (accept ⇒ run clean), the fast backend must reproduce the
// simulation bit for bit (accept ⇒ the closed-form executor is exact),
// and every applicable mutation must be rejected with structured
// diagnostics.
func checkVerifierOnProgram(t *testing.T, c *Compiled, src string, inputs map[string][]float64, simulate bool) {
	t.Helper()
	rep, err := verify.Verify(verifyProgram(c))
	if err != nil {
		t.Fatalf("verifier rejects a compiler-produced program: %v\n%s", err, src)
	}
	if simulate {
		simOut, simStats, err := RunWith(c, inputs, RunOptions{Backend: BackendSim})
		if err != nil {
			t.Fatalf("verifier accepted but simulation failed: %v\n%s", err, src)
		}
		// Stamp the report so the fast backend is eligible, then demand
		// it: every verifier-accepted program must execute identically on
		// both backends — same cycle count, bit-identical outputs.
		c.Verified = rep
		fastOut, fastStats, err := RunWith(c, inputs, RunOptions{Backend: BackendFast})
		if err != nil {
			t.Fatalf("verifier accepted but fast execution failed: %v\n%s", err, src)
		}
		if fastStats.Backend != BackendFast || simStats.Backend != BackendSim {
			t.Fatalf("backend stamps %q/%q, want fast/sim", fastStats.Backend, simStats.Backend)
		}
		if fastStats.Cycles != simStats.Cycles {
			t.Fatalf("backends disagree on cycles: fast %d, sim %d\n%s",
				fastStats.Cycles, simStats.Cycles, src)
		}
		for name, sv := range simOut {
			fv := fastOut[name]
			if len(fv) != len(sv) {
				t.Fatalf("backends disagree on %s length: fast %d, sim %d\n%s", name, len(fv), len(sv), src)
			}
			for i := range sv {
				if math.Float64bits(fv[i]) != math.Float64bits(sv[i]) {
					t.Fatalf("backends disagree on %s[%d]: fast %v, sim %v\n%s", name, i, fv[i], sv[i], src)
				}
			}
		}
	}
	for _, m := range allMutations {
		p := mutated(c)
		if !m.apply(p) {
			continue
		}
		_, err := verify.Verify(*p)
		if err == nil {
			t.Fatalf("mutation %q not rejected\n%s", m.name, src)
		}
		verr, ok := err.(*verify.Error)
		if !ok || len(verr.Diags) == 0 {
			t.Fatalf("mutation %q: rejection carries no structured diagnostics: %v", m.name, err)
		}
	}
}

// FuzzVerifierSoundness fuzzes the accept-implies-clean-run half of the
// verifier's contract and the mutation-rejection half in one harness.
// Explore with `go test -fuzz=FuzzVerifierSoundness ./internal/driver`.
func FuzzVerifierSoundness(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		src, inputs := workloads.RandomProgram(rng)
		for _, opts := range []Options{{}, {NoOptimize: true}, {Pipeline: true}} {
			c, err := Compile(src, opts)
			if err != nil {
				t.Fatalf("compile (%+v): %v\n%s", opts, err, src)
			}
			checkVerifierOnProgram(t, c, src, inputs, true)
		}
	})
}

// TestVerifierSoundnessSweep is the deterministic wide sweep behind the
// fuzz harness: several hundred random programs across all three option
// sets, each verified and mutation-tested; a sample of them simulated.
func TestVerifierSoundnessSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const programs = 180
	for i := 0; i < programs; i++ {
		src, inputs := workloads.RandomProgram(rng)
		for j, opts := range []Options{{}, {NoOptimize: true}, {Pipeline: true}} {
			c, err := Compile(src, opts)
			if err != nil {
				t.Fatalf("program %d: compile (%+v): %v\n%s", i, opts, err, src)
			}
			// Simulating every (program, option) pair would dominate the
			// suite's runtime; every fourth pair keeps the differential
			// signal at a fraction of the cost.
			simulate := (i*3+j)%4 == 0
			checkVerifierOnProgram(t, c, src, inputs, simulate)
		}
	}
}

// TestVerifierRejectsMutationsOnWorkloads pins mutation rejection on
// the real (non-random) workloads, where every mutation has a site in at
// least one of them.
func TestVerifierRejectsMutationsOnWorkloads(t *testing.T) {
	sites := map[string]int{}
	for name, src := range map[string]string{
		"polynomial": workloads.Polynomial(10, 40),
		"conv1d":     workloads.Conv1D(9, 48),
		"matmul":     workloads.Matmul(8),
	} {
		c, err := Compile(src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		applied := 0
		for _, m := range allMutations {
			p := mutated(c)
			if !m.apply(p) {
				continue
			}
			applied++
			sites[m.name]++
			if _, err := verify.Verify(*p); err == nil {
				t.Errorf("%s: mutation %q not rejected", name, m.name)
			}
		}
		if applied < 5 {
			t.Errorf("%s: only %d mutations applicable; the corpus is too weak", name, applied)
		}
	}
	for _, m := range allMutations {
		if sites[m.name] == 0 {
			t.Errorf("mutation %q applies to none of the workloads", m.name)
		}
	}
}
