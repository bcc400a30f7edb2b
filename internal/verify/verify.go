// Package verify is a whole-program static analyzer for compiled Warp
// microcode: it re-derives, from the microinstructions alone, the
// cycle-level contracts the compiler claims to establish by
// construction, and proves them without running the simulator.
//
// The machine has no flow control between cells — correctness rests on
// compile-time guarantees (§6.2 of the paper).  The propositions
// checked here, each mapped to its diagnostic Invariant:
//
//   - queue safety: every queue's occupancy stays within [0, QueueDepth]
//     for the program's full run, proven exactly from the loop tree: per
//     loop, occupancy is linear in the iteration number wherever pushes
//     and pops repeat together, so only the first and last iterations of
//     such a stretch are looked at and no trip count is ever expanded
//     (skew.Evaluate, called from queue.go);
//   - skew coverage: every receive of cell k is covered by the compiled
//     skew relative to the matching send of cell k−1;
//   - FPU result latency: no register read before its producer's
//     5-cycle latency elapses, and no use before definition;
//   - IU streams: the IU address stream matches the cells'
//     memory-reference consumption in count, timing and range, and the
//     loop-control signal stream matches the cell sequencer's boundary
//     crossings, proven from the IU loop tree — registers as affine forms
//     in the loop counters, signals and boundaries as run-length trees
//     (iu.go, sigform.go); the host I/O programs cover the boundary
//     cells' queue traffic word for word;
//   - address values: every address the IU emits is the one the memory
//     field popping it is bound to, proven in the same walk of the IU loop
//     tree against the cell's loop tree (addr.go).  The binding is the
//     decode of the load handed in (sim.Load, mcode.Decode's), the words
//     both executors run: a report is about that load and no other.
//
// Nothing on the accept path runs per event.  Events are enumerated only
// to render the diagnostics of a failed proof.
//
// Verification is conservative: a proof that would exceed its work
// budget is abandoned and the program rejected as unprovable
// (InvUnproven), never accepted unchecked.
package verify

import (
	"fmt"

	"warp/internal/mcode"
	"warp/internal/sim"
	"warp/internal/skew"
	"warp/internal/w2"
)

// Analysis effort caps.  Every practical program fits well inside them;
// beyond, the verifier rejects with InvUnproven rather than silently
// accepting.
const (
	// enumEventLimit is the work budget of one queue proof: the pushes a
	// structural evaluation may look at (a handful per loop level, whatever
	// the trip counts), and the events enumerated to render a violation.
	enumEventLimit = 1 << 22
	// maxDiags caps the diagnostics collected before suppression.
	maxDiags = 64
)

// Program is sim.Config, whose program fields Verify reads through
// sim.Load; kept for benchmark/, see ROADMAP 1(c).
type Program = sim.Config

// Occ is one queue's proven peak occupancy and how it was proven.
type Occ struct {
	Max    int64  `json:"max"`
	Method string `json:"method"` // "exact": the peak itself, not a bound
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
	// Evals is the work the queue proofs did: pushes looked at, summed
	// over every queue.  It depends on the loop structure and the skew,
	// not on trip counts.
	Evals int64 `json:"-"`
	// Steps is the work the IU's value proofs did: words and loops the
	// register fold looked at, signal runs built, moves of the address
	// proof's cursor.  Like Evals it follows the loop structure, not the
	// trip counts.
	Steps int64 `json:"-"`
	// Rendered counts the IU streams enumerated event by event because a
	// structural proof could not decide them; zero on every program the
	// compiler emits.
	Rendered int `json:"-"`
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

// Verify proves the cycle-level invariants of the loaded program l — its
// program fields (l.Config()) and its decode (l.Code()), the load the
// executors run — returning a report on success and an *Error
// aggregating every violation found on failure.
func Verify(l *sim.Loaded) (*Report, error) {
	p := l.Config()
	col := &collector{}
	rep := &Report{
		Cells: p.Cells, Skew: p.Skew, Lead: p.Lead,
		Sends: map[w2.Channel]int64{}, Recvs: map[w2.Channel]int64{},
		Data: map[w2.Channel]Occ{},
	}

	if !checkShape(p, col) {
		return nil, &Error{Diags: col.diags}
	}
	checkStructure(p, col)
	if len(col.diags) > 0 {
		// The deeper analyses assume structural well-formedness (register
		// numbers in range, positive trip counts, counts that fit in 64
		// bits, ...); running them on a malformed program would be
		// meaningless or unsafe.
		return nil, &Error{Diags: col.diags}
	}
	cs := skew.CellStreams(p.Cell)

	// The operation totals are closed-form over trip counts and every
	// group below reads them.
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		rep.Sends[ch], rep.Recvs[ch] = skew.Count(cs.Data[ch], skew.Forever)
	}
	rep.MemRefs, _ = skew.Count(cs.Mem, skew.Forever)
	rep.Signals, _ = skew.Count(cs.Bnd, skew.Forever)

	checkHazards(p.Cell, col)
	col.ok()
	checkHostStreams(p, rep, col)
	checkDataQueues(p, cs, rep, col)
	checkForwardedStreams(p, cs, rep, col)
	// Last: it sharpens the Adr/Sig occupancies the forwarded-stream
	// proof recorded.
	code, _ := l.Code() // ValidateCell refuses an empty loop body
	checkIUStreams(p, code, cs, rep, col)

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

// VerifyParallel is Verify of p's load: the second argument is ignored;
// kept for benchmark/, see ROADMAP 1(c).
func VerifyParallel(p Program, _ int) (*Report, error) { return Verify(sim.Load(p)) }

// checkShape validates the inputs are present and the array geometry is
// sane; nothing else can run without it.
func checkShape(p sim.Config, col *collector) bool {
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
func checkStructure(p sim.Config, col *collector) {
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
	mcode.Fold(p.Cell.Items, struct{}{}, func(v struct{}, in *mcode.Instr, s *mcode.CellSite) struct{} {
		for i := range in.IO {
			if io := &in.IO[i]; io.Recv && io.Dir != w2.DirL {
				col.add(Diagnostic{Invariant: InvStructure, Cell: -1, Instr: s.PC, Loop: -1,
					Detail: "receive from the right: rightward flow only"})
			} else if !io.Recv && io.Dir != w2.DirR {
				col.add(Diagnostic{Invariant: InvStructure, Cell: -1, Instr: s.PC, Loop: -1,
					Detail: "send to the left: rightward flow only"})
			}
		}
		return v
	}, nil, nil)
	col.ok()
}

// checkHostStreams verifies the host I/O programs cover the boundary
// cells' traffic exactly: the host must feed cell 0 one word per
// receive and collect one word per send of the last cell.  The host
// input path is the machine's only flow-controlled link (the host
// waits on a full queue), so count equality is the whole obligation.
func checkHostStreams(p sim.Config, rep *Report, col *collector) {
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		if in := p.Host.In[ch].Words(); in != rep.Recvs[ch] {
			col.add(Diagnostic{Invariant: InvHostStream, Cell: 0, Instr: -1, Loop: -1,
				Detail: fmt.Sprintf("host feeds %d words on %s but the first cell receives %d", in, ch, rep.Recvs[ch])})
		} else {
			col.ok()
		}
		if out := p.Host.Out[ch].Words(); out != rep.Sends[ch] {
			col.add(Diagnostic{Invariant: InvHostStream, Cell: p.Cells - 1, Instr: -1, Loop: -1,
				Detail: fmt.Sprintf("host expects %d words on %s but the last cell sends %d", out, ch, rep.Sends[ch])})
		} else {
			col.ok()
		}
	}
}

// unproven records a queue proof abandoned at its work budget.
func unproven(col *collector, cell int, queue string) {
	col.add(Diagnostic{Invariant: InvUnproven, Cell: cell, Instr: -1, Loop: -1,
		Detail: fmt.Sprintf("%s: occupancy not established within the analysis budget of %d events", queue, int64(enumEventLimit))})
}

// checkDataQueues proves the X and Y inter-cell queues safe.  Every
// cell runs the same program, so one boundary proof covers the array:
// the upstream cell's sends at its cycle s_n feed the queue the
// downstream cell drains with receives at s-cell time r_n + skew.
func checkDataQueues(p sim.Config, cs *skew.Streams, rep *Report, col *collector) {
	if p.Cells < 2 {
		return
	}
	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		body := cs.Data[ch]
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

		res, ok := proveQueue(body, body, p.Skew, &rep.Evals)
		if !ok {
			unproven(col, -1, fmt.Sprintf("channel %s", ch))
			continue
		}
		if res.underAt >= 0 {
			send := fmt.Sprintf("the matching send only at cycle %d", res.underPush)
			if res.underNoPush {
				send = "has no matching send"
			}
			col.add(Diagnostic{Invariant: InvSkew, Cell: -1, Instr: res.underInstr, Loop: -1,
				Detail: fmt.Sprintf("channel %s: receive %d executes at upstream cycle %d but %s; skew %d does not cover it",
					ch, res.underAt, res.underPop, send, p.Skew)})
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
	}
}

// checkForwardedStreams proves the inter-cell Adr and Sig queues safe.
// Each cell forwards every address and signal the cycle it consumes it,
// so the downstream queue's pops replay its pushes exactly skew cycles
// later: underflow is impossible (skew ≥ 1 and upstream steps first),
// and peak occupancy is the largest event count in a skew-cycle window
// (t−skew, t] — the structural evaluation of a stream against itself,
// skew.CheckForwarded, with which the skew stage refuses a decided
// overflow before the verifier sees it.
func checkForwardedStreams(p sim.Config, cs *skew.Streams, rep *Report, col *collector) {
	if p.Cells < 2 {
		return
	}
	lag := p.Skew
	check := func(name string, body []skew.Node) Occ {
		if len(body) == 0 {
			return Occ{}
		}
		peak, ok, err := skew.CheckForwarded(body, lag, mcode.QueueDepth, &rep.Evals)
		switch {
		case !ok:
			unproven(col, -1, name+" queue")
			return Occ{}
		case err != nil:
			col.add(Diagnostic{Invariant: InvQueueOverflow, Cell: -1, Instr: -1, Loop: -1,
				Detail: fmt.Sprintf("%s queue: %d words in one %d-cycle window (> %d)", name, peak, lag, mcode.QueueDepth)})
		default:
			col.ok()
		}
		return Occ{Max: peak, Method: "exact"}
	}
	rep.Adr = check("Adr", cs.Mem)
	rep.Sig = check("Sig", cs.Bnd)
}

// checkIUStreams verifies the IU's two output streams against the
// cells' consumption.  Their values — addresses, table reads, loop
// decisions — are proven from the IU loop tree (iu.go, sigform.go): the
// address range from the register fold, the table reads in closed form,
// and the signal sequence as the boundary sequence's run-length normal
// form.  Their timing does not depend on values: the Adr and Sig queues
// into cell 0 are proven from the IU's emission trees against the cell's,
// like every other queue, and the Sig queue's low-water mark is the
// signals' arrival check.  A failed proof is rendered event by event.
func checkIUStreams(p sim.Config, code *mcode.Decoded, cs *skew.Streams, rep *Report, col *collector) {
	iu := decodeIU(p.IU)
	table := p.IU.Table
	if n := int64(len(table)); iu.reads > n {
		// Over-reads yield address 0, so the checks below still run and
		// surface further violations.
		at, pc := nth(iu.tbl, n)
		col.add(Diagnostic{Invariant: InvAddrStream, Cell: -1, Instr: pc, Loop: -1,
			Detail: fmt.Sprintf("IU reads past the end of its %d-entry address table at cycle %d", n, at)})
	}

	// Address table must be consumed exactly.
	if iu.reads < int64(len(table)) {
		col.add(Diagnostic{Invariant: InvAddrStream, Cell: -1, Instr: -1, Loop: -1,
			Detail: fmt.Sprintf("IU address table has %d entries but the program reads only %d", len(table), iu.reads)})
	} else if iu.reads == int64(len(table)) {
		col.ok()
	}

	// Every emitted address must lie in the cell data memory and be the
	// one the memory field popping it is bound to: one walk of the fold
	// proves both, the second only when the stream's count and its table
	// reads are right.
	cells := newCellRefs(code)
	f := &iuFold{}
	if iu.adrs == rep.MemRefs && iu.reads <= int64(len(table)) {
		f.adr = &adrMatch{cur: cursor{refs: cells}, table: table, ok: true}
	}
	if checkAddrRange(iu, table, f, rep, col) {
		checkAddrValues(p, iu, cells, f.adr, rep, col)
	}

	// Address stream vs cell consumption: cell 0 pops at its cycle + lead.
	if iu.adrs != rep.MemRefs {
		col.add(Diagnostic{Invariant: InvAddrStream, Cell: -1, Instr: -1, Loop: -1,
			Detail: fmt.Sprintf("IU emits %d addresses but each cell makes %d memory references", iu.adrs, rep.MemRefs)})
	} else if res, ok := proveQueue(iu.adr, cs.Mem, p.Lead, &rep.Evals); !ok {
		unproven(col, 0, "Adr queue into cell 0")
	} else {
		col.ok()
		if res.underAt >= 0 {
			emits := fmt.Sprintf("the IU emits the address only at cycle %d", res.underPush)
			if res.underNoPush {
				emits = "the IU emits no address for it"
			}
			col.add(Diagnostic{Invariant: InvAddrStream, Cell: 0, Instr: res.underInstr, Loop: -1,
				Detail: fmt.Sprintf("memory reference %d pops the Adr queue at cycle %d but %s", res.underAt, res.underPop, emits)})
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
	}

	// Signal stream vs the sequencer's boundary crossings.
	if iu.sigs != rep.Signals {
		col.add(Diagnostic{Invariant: InvSigStream, Cell: -1, Instr: -1, Loop: -1,
			Detail: fmt.Sprintf("IU emits %d loop signals but each cell crosses %d loop boundaries", iu.sigs, rep.Signals)})
		return
	}
	col.ok()
	res, queued := sweepResult{underAt: -1, overAt: -1}, true
	if iu.sigs > 0 {
		res, queued = proveQueue(iu.sig, cs.Bnd, p.Lead, &rep.Evals)
	}
	if !queued || res.underAt >= 0 || !sameSignals(iu, cs.Bnd, &rep.Steps) {
		checkSignalsByEvent(p, cs, iu, rep, col)
	} else {
		col.ok()
	}
	if iu.sigs > 0 {
		if !queued {
			unproven(col, 0, "Sig queue into cell 0")
			return
		}
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

// checkAddrRange proves every address the IU emits lies in the cell
// memory: register outputs by the fold's extreme points, table outputs by
// the table words read.  Only a failed proof enumerates, to name each
// address outside.  It reports whether every address is in range.
func checkAddrRange(iu *iuCode, table []int64, f *iuFold, rep *Report, col *collector) bool {
	proven := f.prove(iu)
	rep.Steps += f.steps
	if f.adr != nil {
		rep.Steps += f.adr.cur.steps
	}
	switch {
	case !proven:
		col.add(Diagnostic{Invariant: InvUnproven, Cell: -1, Instr: -1, Loop: f.badLoop.id,
			Detail: fmt.Sprintf("IU loop L%d neither translates nor resets a%d; address range unproven", f.badLoop.id, f.badReg)})
		return false
	case !f.outside && tableInRange(table, iu.reads):
		col.ok()
		return true
	case iu.adrs > enumEventLimit:
		unrendered(col, "IU address range", iu.adrs)
		return false
	}
	rep.Rendered++
	inRange := true
	for _, a := range renderAdrs(iu, table) {
		if a.Val < 0 || a.Val >= mcode.MemWords {
			col.add(Diagnostic{Invariant: InvAddrStream, Cell: -1, Instr: a.PC, Loop: -1,
				Detail: fmt.Sprintf("IU emits address %d at cycle %d, outside the %d-word cell memory", a.Val, a.At, mcode.MemWords)})
			inRange = false
		}
	}
	if inRange {
		col.ok()
	}
	return inRange
}

// checkSignalsByEvent renders the signal comparison the structural proof
// could not make — or that failed — signal by signal: decision against
// the sequencer's crossing, arrival against cell 0's need.  The counts
// are equal.
func checkSignalsByEvent(p sim.Config, cs *skew.Streams, iu *iuCode, rep *Report, col *collector) {
	if iu.sigs > enumEventLimit {
		unrendered(col, "IU signal stream", iu.sigs)
		return
	}
	rep.Rendered++
	sigs := renderSigs(iu)
	seqOK := true
	i := 0
	each(cs.Bnd, 0, true, func(b *skew.Node, at int64, last bool) {
		s, id, more := sigs[i], b.Instr, !last
		if s.ID != id || s.More != more {
			col.add(Diagnostic{Invariant: InvSigStream, Cell: -1, Instr: s.PC, Loop: id,
				Detail: fmt.Sprintf("signal %d: IU sends L%d(more=%v) but the sequencer crosses L%d(more=%v)", i, s.ID, s.More, id, more)})
			seqOK = false
		}
		if s.At > at+p.Lead {
			col.add(Diagnostic{Invariant: InvSigStream, Cell: 0, Instr: s.PC, Loop: id,
				Detail: fmt.Sprintf("signal %d arrives at IU cycle %d, after cell 0 needs it at cycle %d", i, s.At, at+p.Lead)})
			seqOK = false
		}
		i++
	})
	if seqOK {
		col.ok()
	}
}

// unrendered records a failed IU proof whose violation is past the
// budget of events enumerated to name it.
func unrendered(col *collector, what string, events int64) {
	col.add(Diagnostic{Invariant: InvUnproven, Cell: -1, Instr: -1, Loop: -1,
		Detail: fmt.Sprintf("%s: %d events, past the analysis budget of %d enumerated to locate a violation", what, events, int64(enumEventLimit))})
}
