package verify

import (
	"fmt"
	"maps"
	"slices"

	"warp/internal/mcode"
	"warp/internal/skew"
	"warp/internal/w2"
)

// Test-only oracles and hooks: the enumerating analyses the structural
// evaluation of queue.go replaced, kept as its differential reference.

// maxWindow returns the largest number of events falling in any
// half-open window (t−width, t]: the peak occupancy of a queue whose
// pops replay its pushes width cycles later.  times must be
// nondecreasing and width positive.
func maxWindow(times []int64, width int64) int64 {
	var best int64
	i := 0
	for j := range times {
		for times[i] <= times[j]-width {
			i++
		}
		if n := int64(j - i + 1); n > best {
			best = n
		}
	}
	return best
}

// enumerate is the plain merged sweep without the early stop: the most
// the queue holds and the least (negative once a pop underflows), over
// the whole run.
func enumerate(pushes, pops []event, shift int64) (peak, low int64) {
	var occ int64
	i, j := 0, 0
	for i < len(pushes) || j < len(pops) {
		if j >= len(pops) || (i < len(pushes) && pushes[i].at <= pops[j].at+shift) {
			occ++
			peak = max(peak, occ)
			i++
		} else {
			occ--
			low = min(low, occ)
			j++
		}
	}
	return peak, low
}

// compareQueue checks one queue three ways: the evaluator against the
// unstopped enumeration (exact peak and low), and proveQueue's verdict
// against the production sweep over the same events.
func compareQueue(name string, pushes, pops []skew.Node, shift int64) error {
	pu, ok1 := flatten(pushes, pickSend)
	po, ok2 := flatten(pops, pickRecv)
	if !ok1 || !ok2 {
		return fmt.Errorf("%s: too large to enumerate", name)
	}
	var evals int64
	peak, low, ok := skew.Evaluate(pushes, pops, shift+1, enumEventLimit, &evals)
	if !ok {
		return fmt.Errorf("%s: evaluator out of budget", name)
	}
	if ePeak, eLow := enumerate(pu, po, shift); peak != ePeak || low != eLow {
		return fmt.Errorf("%s at shift %d: structural peak %d low %d, enumerated peak %d low %d", name, shift, peak, low, ePeak, eLow)
	}
	want := sweep(pu, po, shift)
	got, ok := proveQueue(pushes, pops, shift, &evals)
	if !ok || got != want {
		return fmt.Errorf("%s at shift %d: proveQueue %+v (ok=%v), sweep %+v", name, shift, got, ok, want)
	}
	if (low < 0) != (want.underAt >= 0) || (low >= 0 && peak != want.maxOcc) {
		return fmt.Errorf("%s at shift %d: structural peak %d low %d against sweep %+v", name, shift, peak, low, want)
	}
	return nil
}

// Differential proves every queue of p both ways — structurally and by
// enumeration — and returns the first disagreement.  It also checks the
// IU proofs against the elaborated trace, event for event (compareIU),
// and the boundary tree's normal form against its enumeration.
func Differential(p Program) error {
	cs := skew.CellStreams(p.Cell)
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		if err := compareQueue("channel "+ch.String(), cs.Data[ch], cs.Data[ch], p.Skew); err != nil {
			return err
		}
	}
	for name, body := range map[string][]skew.Node{"Adr": cs.Mem, "Sig": cs.Bnd} {
		if p.Skew < 1 {
			break
		}
		events, _ := flatten(body, pickSend)
		times := make([]int64, len(events))
		for i, e := range events {
			times[i] = e.at
		}
		var evals int64
		if peak, _, _ := skew.Evaluate(body, body, p.Skew, enumEventLimit, &evals); peak != maxWindow(times, p.Skew) {
			return fmt.Errorf("%s window at skew %d: structural %d, maxWindow %d", name, p.Skew, peak, maxWindow(times, p.Skew))
		}
	}

	f, err := compareIU(p.IU)
	if err != nil {
		return err
	}
	if bad := f.badLoop; bad != nil {
		return fmt.Errorf("IU loop L%d neither translates nor resets a%d", bad.id, f.badReg)
	}
	// The boundary sequence's normal form spells the boundary tree.
	s := newSigForms()
	var bnd []mcode.SigEvent
	each(cs.Bnd, 0, true, func(b *skew.Node, _ int64, last bool) {
		bnd = append(bnd, mcode.SigEvent{ID: b.Instr, More: !last})
	})
	if err := compareRuns(s, s.cellBody(cs.Bnd, nil, true, s.cellInner(cs.Bnd)), bnd); err != nil {
		return fmt.Errorf("boundary tree: %v", err)
	}
	code := decodeIU(p.IU)
	if err := compareQueue("Adr into cell 0", code.adr, cs.Mem, p.Lead); err != nil {
		return err
	}
	if err := compareQueue("Sig into cell 0", code.sig, cs.Bnd, p.Lead); err != nil {
		return err
	}
	if decided, err := compareAddrValues(p); err != nil || !decided {
		return fmt.Errorf("address values: decided %v, %v", decided, err)
	}
	return nil
}

// compareAddrValues runs the structural address proof over p and checks
// its verdict against the streams rendered event by event: an accepting
// proof must see every IU address equal to its field's and within the
// fields' envelope.  decided reports whether the structural proof
// accepted.
func compareAddrValues(p Program) (decided bool, err error) {
	iu := decodeIU(p.IU)
	code, err := mcode.Decode(p.Cell)
	if err != nil {
		return false, err
	}
	cells := newCellRefs(code)
	if iu.reads > int64(len(p.IU.Table)) {
		return false, fmt.Errorf("%d table reads of %d entries", iu.reads, len(p.IU.Table))
	}
	f := &iuFold{adr: &adrMatch{cur: cursor{refs: cells}, table: p.IU.Table, ok: true}}
	if !f.prove(iu) {
		return false, fmt.Errorf("the fold refuses IU loop L%d", f.badLoop.id)
	}
	c := cursor{refs: cells}
	c.reset()
	same := true
	var val [1]int64
	for _, a := range renderAdrs(iu, p.IU.Table) {
		r := c.next()
		if r == nil {
			return false, fmt.Errorf("more addresses than memory fields")
		}
		v := c.form(r, val[:])[0]
		same = same && a.Val == v && v >= cells.lo && v < cells.hi
	}
	if c.next() != nil {
		return false, fmt.Errorf("more memory fields than addresses")
	}
	if f.adr.ok && !same {
		return true, fmt.Errorf("the structural proof accepts addresses that differ from their fields'")
	}
	return f.adr.ok, nil
}

// AddrValuesDecided reports whether the structural address proof accepts
// p, the enumerating renderer unneeded.
func AddrValuesDecided(p Program) bool {
	decided, err := compareAddrValues(p)
	return decided && err == nil
}

// iuOracleCycles bounds the IU runs the oracle elaborates.
const iuOracleCycles = 1 << 24

// compareIU checks the IU proofs of prog against mcode.IUCode.Elaborate,
// event for event: the emission trees, the table-read count and the
// first over-read, both renderers, the signal sequence's normal form,
// and — unless the fold refuses a loop, which the returned fold then
// names — each register-sourced Out field's least and greatest address.
func compareIU(prog *mcode.IUProgram) (*iuFold, error) {
	code, _ := mcode.DecodeIU(prog)
	trace, ok := code.Elaborate(prog.Table, iuOracleCycles)
	if !ok {
		return nil, fmt.Errorf("IU over the oracle's %d cycles", int64(iuOracleCycles))
	}
	iu := decodeIU(prog)
	if iu.adrs != int64(len(trace.Adr)) || iu.sigs != int64(len(trace.Sigs)) {
		return nil, fmt.Errorf("IU trees hold %d addresses and %d signals, the trace %d and %d", iu.adrs, iu.sigs, len(trace.Adr), len(trace.Sigs))
	}
	// Past the enumeration budget flatten returns nothing, and the counts
	// stand for the events.
	adrEvents, _ := flatten(iu.adr, pickSend)
	sigEvents, _ := flatten(iu.sig, pickSend)
	for i, e := range adrEvents {
		if a := trace.Adr[i]; e.at != a.At || e.instr != a.PC {
			return nil, fmt.Errorf("address %d: tree says cycle %d µPC %d, trace cycle %d µPC %d", i, e.at, e.instr, a.At, a.PC)
		}
	}
	for i, e := range sigEvents {
		if s := trace.Sigs[i]; e.at != s.At || e.instr != s.PC {
			return nil, fmt.Errorf("signal %d: tree says cycle %d µPC %d, trace cycle %d µPC %d", i, e.at, e.instr, s.At, s.PC)
		}
	}

	// Table reads and the first over-read, in closed form.
	if iu.reads != int64(trace.TableReads) {
		return nil, fmt.Errorf("%d table reads, the trace %d", iu.reads, trace.TableReads)
	}
	if n := int64(len(prog.Table)); (iu.reads > n) != (trace.OverRead >= 0) {
		return nil, fmt.Errorf("%d reads of a %d-word table, the trace's first over-read %d", iu.reads, n, trace.OverRead)
	} else if trace.OverRead >= 0 {
		a := trace.Adr[trace.OverRead]
		if at, pc := nth(iu.tbl, n); at != a.At || pc != a.PC {
			return nil, fmt.Errorf("first over-read at cycle %d µPC %d, the trace's at cycle %d µPC %d", at, pc, a.At, a.PC)
		}
	}

	// The signal renderer and the IU signal sequence's normal form.
	if got := renderSigs(iu); !slices.Equal(got, trace.Sigs) {
		return nil, fmt.Errorf("rendered signals differ from the trace's")
	}
	s := newSigForms()
	if s.iuInner(iu.items) {
		if err := compareRuns(s, s.iuBody(iu.items, nil, 0), trace.Sigs); err != nil {
			return nil, fmt.Errorf("IU signal tree: %v", err)
		}
	}

	// The fold: each Out field's extremes over the run.
	f := &iuFold{fields: map[int]span{}}
	if !f.prove(iu) {
		return f, nil
	}
	if got := renderAdrs(iu, prog.Table); !slices.Equal(got, trace.Adr) {
		return nil, fmt.Errorf("rendered addresses differ from the trace's")
	}
	want := map[int]span{}
	port, last := 0, mcode.AdrEvent{At: -1}
	for _, a := range trace.Adr {
		if a.At != last.At || a.PC != last.PC {
			port = 0
		}
		outs := code.Words[a.PC].Out
		for outs[port] == nil {
			port++
		}
		if !outs[port].FromTable {
			k := a.PC*mcode.MemPorts + port
			s, seen := want[k]
			if !seen {
				s = span{a.Val, a.Val}
			}
			want[k] = span{min(s.lo, a.Val), max(s.hi, a.Val)}
		}
		port++
		last = a
	}
	if !maps.Equal(f.fields, want) {
		return nil, fmt.Errorf("Out field extremes (µPC·%d + port: [lo hi]): fold %v, trace %v", mcode.MemPorts, f.fields, want)
	}
	if inRange := !slices.ContainsFunc(trace.Adr, func(a mcode.AdrEvent) bool { return a.Val < 0 || a.Val >= mcode.MemWords }); inRange != (!f.outside && tableInRange(prog.Table, iu.reads)) {
		return nil, fmt.Errorf("range verdict %v, the trace's %v", !inRange, inRange)
	}
	return f, nil
}

// compareRuns checks that runs expand to the decisions of sigs.
func compareRuns(s *sigForms, runs []sigRun, sigs []mcode.SigEvent) error {
	i := 0
	var err error
	s.expand(runs, func(id int, more bool) bool {
		switch {
		case i >= len(sigs):
			err = fmt.Errorf("more than %d signals", len(sigs))
		case sigs[i].ID != id || sigs[i].More != more:
			err = fmt.Errorf("signal %d is L%d(more=%v), want L%d(more=%v)", i, id, more, sigs[i].ID, sigs[i].More)
		}
		i++
		return err == nil
	})
	if err == nil && i != len(sigs) {
		err = fmt.Errorf("%d signals, want %d", i, len(sigs))
	}
	return err
}

// expand calls f with every symbol of runs in order until f returns
// false; it returns false then.
func (s *sigForms) expand(runs []sigRun, f func(id int, more bool) bool) bool {
	for _, r := range runs {
		n := &s.nodes[r.node]
		for k := int64(0); k < r.n; k++ {
			if n.body == nil && !f(n.id, n.more) || n.body != nil && !s.expand(n.body, f) {
				return false
			}
		}
	}
	return true
}

// Hazards runs the register hazard check over p and returns its
// diagnostics, the number suppressed and the instructions it visited.
func Hazards(p *mcode.CellProgram) (diags []Diagnostic, dropped int, visited int64) {
	h := &hazardChecker{col: &collector{}}
	h.walkItems(p.Items, 0, 0)
	return h.col.diags, h.col.dropped, h.visited
}

// RefHazards is Hazards on the reference check of reference_test.go.
func RefHazards(p *mcode.CellProgram) (diags []Diagnostic, dropped int) {
	h := &refHazardChecker{col: &collector{}}
	h.walkItems(p.Items, 0, 0)
	return h.col.diags, h.col.dropped
}
