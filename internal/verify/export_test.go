package verify

import (
	"fmt"

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
// IU emission trees against the elaborated trace, event for event.
func Differential(p Program) error {
	cs := buildCellStreams(p.Cell)
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		skew.Seal(cs.data[ch])
		if err := compareQueue("channel "+ch.String(), cs.data[ch], cs.data[ch], p.Skew); err != nil {
			return err
		}
	}
	skew.Seal(cs.mem)
	skew.Seal(cs.bnd)
	for name, body := range map[string][]skew.Node{"Adr": cs.mem, "Sig": cs.bnd} {
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

	iuCode, _ := mcode.DecodeIU(p.IU)
	trace, ok := iuCode.Elaborate(p.IU.Table, emuCycleLimit)
	if !ok {
		return fmt.Errorf("IU over the cycle limit")
	}
	adr, sig := buildIUStreams(p.IU)
	adrEvents, _ := flatten(adr, pickSend)
	sigEvents, _ := flatten(sig, pickSend)
	if len(adrEvents) != len(trace.Adr) || len(sigEvents) != len(trace.Sigs) {
		return fmt.Errorf("IU trees hold %d addresses and %d signals, the trace %d and %d", len(adrEvents), len(sigEvents), len(trace.Adr), len(trace.Sigs))
	}
	for i, a := range trace.Adr {
		if e := adrEvents[i]; e.at != a.At || e.instr != a.PC {
			return fmt.Errorf("address %d: tree says cycle %d µPC %d, trace cycle %d µPC %d", i, e.at, e.instr, a.At, a.PC)
		}
	}
	for i, s := range trace.Sigs {
		if e := sigEvents[i]; e.at != s.At || e.instr != s.PC {
			return fmt.Errorf("signal %d: tree says cycle %d µPC %d, trace cycle %d µPC %d", i, e.at, e.instr, s.At, s.PC)
		}
	}
	if err := compareQueue("Adr into cell 0", adr, cs.mem, p.Lead); err != nil {
		return err
	}
	return compareQueue("Sig into cell 0", sig, cs.bnd, p.Lead)
}
