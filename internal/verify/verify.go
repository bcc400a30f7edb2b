// Package verify is a whole-program static analyzer for compiled Warp
// microcode: it re-derives, from the microinstructions alone, the
// cycle-level contracts the compiler claims to establish by
// construction, and proves them without running the simulator.
//
// The machine has no flow control between cells — correctness rests on
// compile-time guarantees (§6.2 of the paper).  The propositions
// checked here, each mapped to its diagnostic Invariant:
//
//   - queue safety: every inter-cell queue's occupancy stays within
//     [0, QueueDepth] for the program's full run, proven by symbolic
//     per-loop send/receive counting (any trip count) and, when the
//     stream is small enough, an exact event sweep;
//   - skew coverage: every receive of cell k is covered by the compiled
//     skew relative to the matching send of cell k−1;
//   - FPU result latency: no register read before its producer's
//     5-cycle latency elapses, and no use before definition;
//   - IU streams: the elaborated IU address stream matches the cells'
//     memory-reference consumption in count, timing and range, and the
//     loop-control signal stream matches the cell sequencer's boundary
//     crossings; the host I/O programs cover the boundary cells' queue
//     traffic word for word.
//
// Verification is conservative: a program too large for the exact
// analyses whose symbolic bounds cannot discharge an obligation is
// rejected as unprovable (InvUnproven), never accepted unchecked.
package verify

import (
	"fmt"

	"warp/internal/conc"
	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/skew"
	"warp/internal/w2"
)

// Analysis effort caps.  Every practical program fits well inside them;
// beyond, the verifier falls back to symbolic bounds or rejects with
// InvUnproven rather than silently accepting.
const (
	// enumEventLimit caps the dynamic events enumerated per stream.
	enumEventLimit = 1 << 22
	// emuCycleLimit caps full-expansion walks (IU elaboration, boundary
	// sequence) in cycles.
	emuCycleLimit = 1 << 24
	// maxDiags caps the diagnostics collected before suppression.
	maxDiags = 64
)

// Program is the compiled artifact under verification: exactly what the
// simulator would be handed.
type Program struct {
	Cells int
	Cell  *mcode.CellProgram
	IU    *mcode.IUProgram
	Host  *hostgen.Program
	// Skew is the start-time delay between adjacent cells.
	Skew int64
	// Lead is the delay between the IU's start and cell 0's.
	Lead int64
}

// Occ is one queue's proven peak occupancy and how it was proven.
type Occ struct {
	Max    int64  `json:"max"`
	Method string `json:"method"` // "exact" or "symbolic"
}

// Report summarizes a successful verification.
type Report struct {
	Cells int   `json:"cells"`
	Skew  int64 `json:"skew"`
	Lead  int64 `json:"lead"`
	// Checked counts the propositions discharged.
	Checked int `json:"checked"`
	// Dynamic operation totals, derived symbolically (closed form over
	// trip counts).
	Sends   map[w2.Channel]int64 `json:"sends"`
	Recvs   map[w2.Channel]int64 `json:"recvs"`
	MemRefs int64                `json:"memRefs"`
	Signals int64                `json:"signals"`
	// Proven peak occupancies: per data channel, and the worst Adr/Sig
	// queue in the array.
	Data map[w2.Channel]Occ `json:"data"`
	Adr  Occ                `json:"adr"`
	Sig  Occ                `json:"sig"`
}

// collector accumulates diagnostics with a suppression cap.
type collector struct {
	diags   []Diagnostic
	dropped int
	checked int
}

func (c *collector) add(d Diagnostic) {
	if len(c.diags) >= maxDiags {
		c.dropped++
		return
	}
	c.diags = append(c.diags, d)
}

// ok records one discharged proposition.
func (c *collector) ok() { c.checked++ }

// Verify proves the program's cycle-level invariants, returning a
// report on success and an *Error aggregating every violation found on
// failure.
func Verify(p Program) (*Report, error) {
	return VerifyParallel(p, 1)
}

// VerifyParallel is Verify with its independent invariant groups —
// register hazards, host stream coverage, data queue safety, forwarded
// Adr/Sig queue safety, and the IU stream elaboration — proven on up to
// workers concurrent goroutines.  Each group collects diagnostics and
// report fragments privately; the fragments are merged in the serial
// checking order, so the report, every diagnostic, the suppression
// cap's behaviour and the proposition count are identical at any
// worker count.
func VerifyParallel(p Program, workers int) (*Report, error) {
	col := &collector{}
	rep := &Report{
		Cells: p.Cells, Skew: p.Skew, Lead: p.Lead,
		Sends: map[w2.Channel]int64{}, Recvs: map[w2.Channel]int64{},
		Data: map[w2.Channel]Occ{},
	}

	if !checkShape(p, col) {
		return nil, &Error{Diags: col.diags}
	}
	cs := buildCellStreams(p.Cell)
	checkStructure(p, cs, col)
	if len(col.diags) > 0 {
		// The deeper analyses assume structural well-formedness (register
		// numbers in range, positive trip counts, ...); running them on a
		// malformed program would be meaningless or unsafe.
		return nil, &Error{Diags: col.diags}
	}

	// The symbolic operation totals are cheap and every group reads
	// them, so they are derived once before the fan-out.
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		s, r := treeCount(cs.data[ch])
		rep.Sends[ch], rep.Recvs[ch] = s, r
	}
	rep.MemRefs, _ = treeCount(cs.mem)
	rep.Signals = mcode.CountCell(p.Cell).Signals
	// So is the exact cell-side elaboration two of the groups sweep.
	cs.elaborate(rep.MemRefs, rep.Signals)

	// Independent invariant groups.  Each runs against a shadow report
	// seeded with the shared totals and a private collector; shadows
	// are merged below in this slice's order, which is the serial
	// checking order.
	groups := []struct {
		name string
		run  func(r *Report, c *collector)
	}{
		{"hazards", func(r *Report, c *collector) { checkHazards(p.Cell, cs.index, c); c.ok() }},
		{"host-streams", func(r *Report, c *collector) { checkHostStreams(p, r, c) }},
		{"data-queues", func(r *Report, c *collector) { checkDataQueues(p, cs, r, c) }},
		{"forwarded-streams", func(r *Report, c *collector) { checkForwardedStreams(p, cs, r, c) }},
		{"iu-streams", func(r *Report, c *collector) { checkIUStreams(p, cs, r, c) }},
	}
	shadowRep := make([]*Report, len(groups))
	shadowCol := make([]*collector, len(groups))
	conc.Do(workers, len(groups), func(i int) {
		r := &Report{
			Cells: rep.Cells, Skew: rep.Skew, Lead: rep.Lead,
			Sends: rep.Sends, Recvs: rep.Recvs,
			MemRefs: rep.MemRefs, Signals: rep.Signals,
			Data: map[w2.Channel]Occ{},
		}
		c := &collector{}
		groups[i].run(r, c)
		shadowRep[i], shadowCol[i] = r, c
	})

	// Merge.  Diagnostics concatenate in group order into the shared
	// collector, whose cap replays the serial suppression behaviour: a
	// group collects at most maxDiags privately (anything beyond would
	// have been suppressed serially too), and re-adding through col
	// re-applies the global cap at the same sequence positions.
	for i := range groups {
		for _, d := range shadowCol[i].diags {
			col.add(d)
		}
		col.dropped += shadowCol[i].dropped
		col.checked += shadowCol[i].checked
	}
	// Report fragments: each field has exactly one writing group, except
	// the Adr/Sig occupancies, where the IU-stream group sharpens the
	// forwarded-stream group's result by the serial max-merge rule.
	for ch, occ := range shadowRep[2].Data {
		rep.Data[ch] = occ
	}
	rep.Adr, rep.Sig = shadowRep[3].Adr, shadowRep[3].Sig
	if iu := shadowRep[4]; iu.Adr.Method != "" && (rep.Adr.Method == "" || iu.Adr.Max > rep.Adr.Max) {
		rep.Adr = iu.Adr
	}
	if iu := shadowRep[4]; iu.Sig.Method != "" && (rep.Sig.Method == "" || iu.Sig.Max > rep.Sig.Max) {
		rep.Sig = iu.Sig
	}

	rep.Checked = col.checked
	if col.dropped > 0 {
		col.diags = append(col.diags, Diagnostic{
			Invariant: InvStructure, Cell: -1, Instr: -1, Loop: -1,
			Detail: fmt.Sprintf("%d further diagnostics suppressed", col.dropped),
		})
	}
	if len(col.diags) > 0 {
		return nil, &Error{Diags: col.diags}
	}
	return rep, nil
}

// checkShape validates the inputs are present and the array geometry is
// sane; nothing else can run without it.
func checkShape(p Program, col *collector) bool {
	bad := func(detail string) {
		col.add(Diagnostic{Invariant: InvStructure, Cell: -1, Instr: -1, Loop: -1, Detail: detail})
	}
	if p.Cell == nil || p.IU == nil || p.Host == nil {
		bad("missing cell, IU or host program")
		return false
	}
	if p.Cells < 1 {
		bad(fmt.Sprintf("array of %d cells", p.Cells))
		return false
	}
	if p.Lead < 1 {
		bad(fmt.Sprintf("lead %d: cell 0 must start at least one cycle after the IU (prologue + transfer)", p.Lead))
	}
	if p.Skew < 0 {
		bad(fmt.Sprintf("negative skew %d", p.Skew))
		return false
	}
	if p.Cells > 1 && p.Skew < 1 {
		// Addresses and signals hop one cell per cycle; a zero skew
		// would make a downstream cell consume a word the same cycle
		// the IU emits it, |array| cells away.
		bad(fmt.Sprintf("skew %d with %d cells: systolic forwarding needs skew ≥ 1", p.Skew, p.Cells))
	}
	return true
}

// checkStructure runs the mcode structural validators and the dataflow
// direction rule (rightward only, matching the simulator's wiring).
func checkStructure(p Program, cs *cellStreams, col *collector) {
	if err := mcode.ValidateCell(p.Cell); err != nil {
		col.add(Diagnostic{Invariant: InvStructure, Cell: -1, Instr: -1, Loop: -1,
			Detail: "cell program: " + err.Error()})
	} else {
		col.ok()
	}
	if err := mcode.ValidateIU(p.IU); err != nil {
		col.add(Diagnostic{Invariant: InvStructure, Cell: -1, Instr: -1, Loop: -1,
			Detail: "IU program: " + err.Error()})
	} else {
		col.ok()
	}
	for pc, w := range cs.code.Words {
		for _, io := range w.IO {
			if io.Recv && io.Dir != w2.DirL {
				col.add(Diagnostic{Invariant: InvStructure, Cell: -1, Instr: pc, Loop: -1,
					Detail: "receive from the right: rightward flow only"})
			}
			if !io.Recv && io.Dir != w2.DirR {
				col.add(Diagnostic{Invariant: InvStructure, Cell: -1, Instr: pc, Loop: -1,
					Detail: "send to the left: rightward flow only"})
			}
		}
	}
	col.ok()
}

// checkHostStreams verifies the host I/O programs cover the boundary
// cells' traffic exactly: the host must feed cell 0 one word per
// receive and collect one word per send of the last cell.  The host
// input path is the machine's only flow-controlled link (the host
// waits on a full queue), so count equality is the whole obligation.
func checkHostStreams(p Program, rep *Report, col *collector) {
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		if in := int64(len(p.Host.In[ch])); in != rep.Recvs[ch] {
			col.add(Diagnostic{Invariant: InvHostStream, Cell: 0, Instr: -1, Loop: -1,
				Detail: fmt.Sprintf("host feeds %d words on %s but the first cell receives %d", in, ch, rep.Recvs[ch])})
		} else {
			col.ok()
		}
		if out := int64(len(p.Host.Out[ch])); out != rep.Sends[ch] {
			col.add(Diagnostic{Invariant: InvHostStream, Cell: p.Cells - 1, Instr: -1, Loop: -1,
				Detail: fmt.Sprintf("host expects %d words on %s but the last cell sends %d", out, ch, rep.Sends[ch])})
		} else {
			col.ok()
		}
	}
}

// checkDataQueues proves the X and Y inter-cell queues safe.  Every
// cell runs the same program, so one boundary proof covers the array:
// the upstream cell's sends at its cycle s_n feed the queue the
// downstream cell drains with receives at s-cell time r_n + skew.
func checkDataQueues(p Program, cs *cellStreams, rep *Report, col *collector) {
	if p.Cells < 2 {
		return
	}
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		body := cs.data[ch]
		sends, recvs := rep.Sends[ch], rep.Recvs[ch]
		if sends == 0 && recvs == 0 {
			continue
		}
		if sends != recvs {
			col.add(Diagnostic{Invariant: InvQueueBalance, Cell: -1, Instr: -1, Loop: -1,
				Detail: fmt.Sprintf("channel %s: %d sends vs %d receives per cell; the inter-cell queue cannot balance", ch, sends, recvs)})
			continue
		}
		col.ok()

		if sends <= enumEventLimit {
			var pushes, pops []event
			flatten(body, 0, pickSend, &pushes, enumEventLimit)
			flatten(body, 0, pickRecv, &pops, enumEventLimit)
			res := sweep(pushes, pops, 0, p.Skew, mcode.QueueDepth)
			if res.underAt >= 0 {
				col.add(Diagnostic{Invariant: InvSkew, Cell: -1, Instr: res.underInstr, Loop: -1,
					Detail: fmt.Sprintf("channel %s: receive %d executes at upstream cycle %d but the matching send only at cycle %d; skew %d does not cover it",
						ch, res.underAt, res.underPop, res.underPush, p.Skew)})
			} else {
				col.ok()
			}
			if res.overAt >= 0 {
				col.add(Diagnostic{Invariant: InvQueueOverflow, Cell: -1, Instr: res.overInstr, Loop: -1,
					Detail: fmt.Sprintf("channel %s: occupancy reaches %d (> %d) at send %d, cycle %d",
						ch, res.maxOcc, mcode.QueueDepth, res.overAt, res.overPush)})
			} else {
				col.ok()
			}
			rep.Data[ch] = Occ{Max: res.maxOcc, Method: "exact"}
			continue
		}

		// Symbolic path: occupancy bound from per-loop counting, and
		// skew coverage from the paper's pairwise timing-function bound
		// (both independent of trip counts).
		bound := symbolicOccBound(body, p.Skew, 1)
		if bound > mcode.QueueDepth {
			col.add(Diagnostic{Invariant: InvUnproven, Cell: -1, Instr: -1, Loop: -1,
				Detail: fmt.Sprintf("channel %s: symbolic occupancy bound %d exceeds %d and the %d-event stream is too large to enumerate",
					ch, bound, mcode.QueueDepth, sends)})
		} else {
			col.ok()
		}
		sp := skewProg(body, cs.cycles)
		b, _, err := skew.MinSkewBound(sp, sp, skew.BoundTight)
		switch {
		case err != nil:
			col.add(Diagnostic{Invariant: InvUnproven, Cell: -1, Instr: -1, Loop: -1,
				Detail: fmt.Sprintf("channel %s: skew bound failed: %v", ch, err)})
		case b.Cmp(skew.RI(p.Skew)) > 0:
			col.add(Diagnostic{Invariant: InvUnproven, Cell: -1, Instr: -1, Loop: -1,
				Detail: fmt.Sprintf("channel %s: cannot prove skew %d covers every receive (symbolic minimum-skew bound %s) and the stream is too large to enumerate",
					ch, p.Skew, b)})
		default:
			col.ok()
		}
		rep.Data[ch] = Occ{Max: bound, Method: "symbolic"}
	}
}

// checkForwardedStreams proves the inter-cell Adr and Sig queues safe.
// Each cell forwards every address and signal the cycle it consumes it,
// so the downstream queue's pops replay its pushes exactly skew cycles
// later: underflow is impossible (skew ≥ 1 and upstream steps first),
// and peak occupancy is the largest event count in a skew-cycle window.
func checkForwardedStreams(p Program, cs *cellStreams, rep *Report, col *collector) {
	if p.Cells < 2 {
		return
	}
	check := func(name string, times []int64, enumerated bool, total, rate int64, inv Invariant) Occ {
		if total == 0 {
			return Occ{}
		}
		if enumerated {
			occ := maxWindow(times, p.Skew)
			if occ > mcode.QueueDepth {
				col.add(Diagnostic{Invariant: InvQueueOverflow, Cell: -1, Instr: -1, Loop: -1,
					Detail: fmt.Sprintf("%s queue: %d words in one %d-cycle window (> %d)", name, occ, p.Skew, mcode.QueueDepth)})
			} else {
				col.ok()
			}
			return Occ{Max: occ, Method: "exact"}
		}
		bound := symbolicWindowBound(total, p.Skew, rate)
		if bound > mcode.QueueDepth {
			col.add(Diagnostic{Invariant: InvUnproven, Cell: -1, Instr: -1, Loop: -1,
				Detail: fmt.Sprintf("%s queue: symbolic bound %d exceeds %d and the stream is too large to enumerate", name, bound, mcode.QueueDepth)})
		} else {
			col.ok()
		}
		return Occ{Max: bound, Method: "symbolic"}
	}

	memTimes := make([]int64, len(cs.memRefs))
	for i, e := range cs.memRefs {
		memTimes[i] = e.at
	}
	rep.Adr = check("Adr", memTimes, cs.memEnum, rep.MemRefs, mcode.MemPorts, InvAddrStream)

	bTimes := make([]int64, len(cs.bounds))
	for i, b := range cs.bounds {
		bTimes[i] = b.at
	}
	// A cycle can cross at most one boundary per enclosing loop level,
	// which bounds the signal rate.
	rep.Sig = check("Sig", bTimes, cs.boundsEnum, rep.Signals, int64(cs.code.Depth), InvSigStream)
}

// checkIUStreams elaborates the IU (mcode.IUCode.Elaborate, the shared
// definition of its register machine) and verifies its two output
// streams against the cells' consumption: the address stream (count, range,
// arrival-before-use, queue occupancy into cell 0) and the loop-control
// signal stream (exact sequence equality with the sequencer's boundary
// crossings, arrival, occupancy).
func checkIUStreams(p Program, cs *cellStreams, rep *Report, col *collector) {
	// An IU loop with an empty body emits nothing and takes no time; the
	// decoder leaves it out.
	iuCode, _ := mcode.DecodeIU(p.IU)
	trace, ok := iuCode.Elaborate(p.IU.Table, emuCycleLimit)
	if k := trace.OverRead; k >= 0 {
		// Over-reads yield address 0, so the checks below still run and
		// surface further violations.
		a := trace.Adr[k]
		col.add(Diagnostic{Invariant: InvAddrStream, Cell: -1, Instr: a.PC, Loop: -1,
			Detail: fmt.Sprintf("IU reads past the end of its %d-entry address table at cycle %d", len(p.IU.Table), a.At)})
	}
	if !ok {
		col.add(Diagnostic{Invariant: InvUnproven, Cell: -1, Instr: -1, Loop: -1,
			Detail: fmt.Sprintf("IU program exceeds %d cycles; address and signal streams cannot be verified", int64(emuCycleLimit))})
		return
	}

	// Address table must be consumed exactly.
	if trace.TableReads < len(p.IU.Table) {
		col.add(Diagnostic{Invariant: InvAddrStream, Cell: -1, Instr: -1, Loop: -1,
			Detail: fmt.Sprintf("IU address table has %d entries but the program reads only %d", len(p.IU.Table), trace.TableReads)})
	} else if trace.TableReads == len(p.IU.Table) {
		col.ok()
	}

	// Every emitted address must lie in the cell data memory.
	rangeOK := true
	for _, a := range trace.Adr {
		if a.Val < 0 || a.Val >= mcode.MemWords {
			col.add(Diagnostic{Invariant: InvAddrStream, Cell: -1, Instr: a.PC, Loop: -1,
				Detail: fmt.Sprintf("IU emits address %d at cycle %d, outside the %d-word cell memory", a.Val, a.At, mcode.MemWords)})
			rangeOK = false
		}
	}
	if rangeOK {
		col.ok()
	}

	// Address stream vs cell consumption.
	if n := int64(len(trace.Adr)); n != rep.MemRefs {
		col.add(Diagnostic{Invariant: InvAddrStream, Cell: -1, Instr: -1, Loop: -1,
			Detail: fmt.Sprintf("IU emits %d addresses but each cell makes %d memory references", n, rep.MemRefs)})
	} else if cs.memEnum {
		col.ok()
		pushes := make([]event, len(trace.Adr))
		for i, a := range trace.Adr {
			pushes[i] = event{at: a.At, instr: a.PC}
		}
		res := sweep(pushes, cs.memRefs, 0, p.Lead, mcode.QueueDepth)
		if res.underAt >= 0 {
			col.add(Diagnostic{Invariant: InvAddrStream, Cell: 0, Instr: res.underInstr, Loop: -1,
				Detail: fmt.Sprintf("memory reference %d pops the Adr queue at cycle %d but the IU emits the address only at cycle %d",
					res.underAt, res.underPop, res.underPush)})
		} else {
			col.ok()
		}
		if res.overAt >= 0 {
			col.add(Diagnostic{Invariant: InvQueueOverflow, Cell: 0, Instr: res.overInstr, Loop: -1,
				Detail: fmt.Sprintf("Adr queue into cell 0 reaches occupancy %d (> %d) at IU cycle %d", res.maxOcc, mcode.QueueDepth, res.overPush)})
		} else {
			col.ok()
		}
		if rep.Adr.Method == "" || res.maxOcc > rep.Adr.Max {
			rep.Adr = Occ{Max: res.maxOcc, Method: "exact"}
		}
	} else {
		col.add(Diagnostic{Invariant: InvUnproven, Cell: -1, Instr: -1, Loop: -1,
			Detail: fmt.Sprintf("%d memory references are too many to enumerate; Adr timing into cell 0 unproven", rep.MemRefs)})
	}

	// Signal stream vs the sequencer's boundary crossings.
	bounds := cs.bounds
	if !cs.boundsEnum {
		col.add(Diagnostic{Invariant: InvUnproven, Cell: -1, Instr: -1, Loop: -1,
			Detail: "cell program too large to enumerate loop boundaries; signal stream unproven"})
		return
	}
	if len(trace.Sigs) != len(bounds) {
		col.add(Diagnostic{Invariant: InvSigStream, Cell: -1, Instr: -1, Loop: -1,
			Detail: fmt.Sprintf("IU emits %d loop signals but each cell crosses %d loop boundaries", len(trace.Sigs), len(bounds))})
		return
	}
	col.ok()
	seqOK := true
	for i, s := range trace.Sigs {
		b := bounds[i]
		if s.ID != b.id || s.More != b.more {
			col.add(Diagnostic{Invariant: InvSigStream, Cell: -1, Instr: s.PC, Loop: b.id,
				Detail: fmt.Sprintf("signal %d: IU sends L%d(more=%v) but the sequencer crosses L%d(more=%v)", i, s.ID, s.More, b.id, b.more)})
			seqOK = false
		}
		if s.At > b.at+p.Lead {
			col.add(Diagnostic{Invariant: InvSigStream, Cell: 0, Instr: s.PC, Loop: b.id,
				Detail: fmt.Sprintf("signal %d arrives at IU cycle %d, after cell 0 needs it at cycle %d", i, s.At, b.at+p.Lead)})
			seqOK = false
		}
	}
	if seqOK {
		col.ok()
	}
	if len(trace.Sigs) > 0 {
		pushes := make([]event, len(trace.Sigs))
		for i, s := range trace.Sigs {
			pushes[i] = event{at: s.At, instr: s.PC}
		}
		pops := make([]event, len(bounds))
		for i, b := range bounds {
			pops[i] = event{at: b.at, instr: -1}
		}
		res := sweep(pushes, pops, 0, p.Lead, mcode.QueueDepth)
		if res.overAt >= 0 {
			col.add(Diagnostic{Invariant: InvQueueOverflow, Cell: 0, Instr: res.overInstr, Loop: -1,
				Detail: fmt.Sprintf("Sig queue into cell 0 reaches occupancy %d (> %d) at IU cycle %d", res.maxOcc, mcode.QueueDepth, res.overPush)})
		} else {
			col.ok()
		}
		if rep.Sig.Method == "" || res.maxOcc > rep.Sig.Max {
			rep.Sig = Occ{Max: res.maxOcc, Method: "exact"}
		}
	}
}
