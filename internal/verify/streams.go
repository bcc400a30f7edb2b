package verify

import (
	"warp/internal/mcode"
	"warp/internal/skew"
	"warp/internal/w2"
)

// streams.go reduces the microcode to timed event streams — the
// verifier's own reading of the programs, independent of the code
// generators' bookkeeping.  Two forms are produced:
//
//   - a structured tree per stream (loops kept symbolic), which the
//     counting and occupancy bounds of counts.go consume without ever
//     expanding a trip count; and
//   - flat enumerations (every dynamic event with its exact cycle),
//     used when the program is small enough for the exact sweeps.
//
// The machine model itself — µPC numbering, the sequencer, the IU
// register machine — is not re-implemented here: the cell program is
// decoded by mcode.DecodeCell, loop boundaries are enumerated by
// stepping mcode.Seq, and the IU's streams come from
// mcode.IUCode.Elaborate (see checkIUStreams).
//
// Cell time is the instruction's ordinal in the dynamic execution:
// every cell executes exactly one microinstruction per cycle, so the
// nth instruction of cell k runs at machine cycle start_k + n with
// start_k = Lead + k·Skew.

// snode is one element of a structured timed stream: either a leaf
// carrying event deltas at one cycle, or a loop.
type snode struct {
	at    int64 // cycle relative to the enclosing body's start
	instr int   // static instruction index (leaf only)
	send  int   // events pushed at this cycle
	recv  int   // events popped at this cycle
	loop  *sloop
}

type sloop struct {
	at      int64
	trips   int64
	iterLen int64
	body    []snode
}

// event is one dynamic stream event at an absolute cycle.
type event struct {
	at    int64
	instr int
}

// cellStreams is everything the verifier derives from one cell program.
type cellStreams struct {
	code   mcode.CellCode         // the decoded program (mcode's shared machine model)
	index  map[*mcode.Instr]int   // an instruction's µPC: its index in code.Words
	data   map[w2.Channel][]snode // send/recv deltas per data channel
	mem    []snode                // memory references (Adr-queue pops), send=count
	cycles int64                  // total program length in cycles

	// The exact cell-side elaboration (elaborate), shared by every
	// invariant group that sweeps it.  A stream over its analysis cap is
	// not enumerated and its flag stays false.
	memRefs    []event    // every memory reference, in time order
	memEnum    bool       // memRefs is complete
	bounds     []boundary // every loop boundary crossed, in sequencer order
	boundsEnum bool       // bounds is complete
}

// buildCellStreams walks the cell program once, structurally.
func buildCellStreams(p *mcode.CellProgram) *cellStreams {
	cs := &cellStreams{
		data:  map[w2.Channel][]snode{w2.ChanX: nil, w2.ChanY: nil},
		index: map[*mcode.Instr]int{},
	}
	// A loop with an empty body is left out of the code and reported by
	// checkStructure (mcode.ValidateCell), before anything sequences it.
	cs.code, _ = mcode.DecodeCell(p)
	for pc := range cs.code.Words {
		cs.index[cs.code.Words[pc].Instr] = pc
	}
	var walk func(items []mcode.CodeItem) (length int64, data map[w2.Channel][]snode, mem []snode)
	walk = func(items []mcode.CodeItem) (int64, map[w2.Channel][]snode, []snode) {
		var at int64
		data := map[w2.Channel][]snode{}
		var mem []snode
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.Straight:
				for i, in := range it.Instrs {
					t := at + int64(i)
					nMem := 0
					for _, m := range in.Mem {
						if m != nil {
							nMem++
						}
					}
					// One leaf per (instruction, channel), so a cycle
					// carrying both a send and a receive keeps them
					// together: the occupancy extremes then evaluate both
					// within-cycle orderings conservatively.
					var perChan [2]snode
					for _, io := range in.IO {
						slot := 0
						if io.Chan == w2.ChanY {
							slot = 1
						}
						n := &perChan[slot]
						n.at, n.instr = t, cs.index[in]
						if io.Recv {
							n.recv++
						} else {
							n.send++
						}
					}
					for slot, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
						if n := perChan[slot]; n.send > 0 || n.recv > 0 {
							data[ch] = append(data[ch], n)
						}
					}
					if nMem > 0 {
						mem = append(mem, snode{at: t, instr: cs.index[in], send: nMem})
					}
				}
				at += int64(len(it.Instrs))
			case *mcode.LoopItem:
				n, innerData, innerMem := walk(it.Body)
				for ch, body := range innerData {
					if len(body) == 0 {
						continue
					}
					data[ch] = append(data[ch], snode{
						loop: &sloop{at: at, trips: it.Trips, iterLen: n, body: body},
					})
				}
				if len(innerMem) > 0 {
					mem = append(mem, snode{
						loop: &sloop{at: at, trips: it.Trips, iterLen: n, body: innerMem},
					})
				}
				at += n * it.Trips
			}
		}
		return at, data, mem
	}
	length, data, mem := walk(p.Items)
	cs.cycles = length
	for ch, body := range data {
		cs.data[ch] = body
	}
	cs.mem = mem
	return cs
}

// skewProg converts a structured stream to the skew package's timed I/O
// program form, so the paper's pairwise symbolic machinery (closed-form
// timing functions over characteristic vectors) can bound it without
// enumeration.  Statement IDs are assigned in textual order per kind.
func skewProg(body []snode, length int64) *skew.Prog {
	ids := [2]int{}
	var conv func(body []snode) []skew.Elem
	conv = func(body []snode) []skew.Elem {
		var out []skew.Elem
		for _, n := range body {
			if n.loop != nil {
				out = append(out, &skew.Loop{
					At: n.loop.at, Trips: n.loop.trips, IterLen: n.loop.iterLen,
					Body: conv(n.loop.body),
				})
				continue
			}
			if n.send > 0 {
				out = append(out, &skew.Op{Kind: skew.Output, ID: ids[1], At: n.at})
				ids[1]++
			}
			if n.recv > 0 {
				out = append(out, &skew.Op{Kind: skew.Input, ID: ids[0], At: n.at})
				ids[0]++
			}
		}
		return out
	}
	return &skew.Prog{Body: conv(body), Len: length}
}

// treeCount returns the dynamic send/recv event totals of a stream
// without enumerating it: closed-form products over trip counts.
func treeCount(body []snode) (sends, recvs int64) {
	for _, n := range body {
		if n.loop != nil {
			s, r := treeCount(n.loop.body)
			sends += s * n.loop.trips
			recvs += r * n.loop.trips
			continue
		}
		sends += int64(n.send)
		recvs += int64(n.recv)
	}
	return sends, recvs
}

// flatten enumerates every dynamic event of the selected kind in time
// order, shifted by base.  pick selects how many events a leaf yields
// (sends or recvs).  It returns false once the limit would be exceeded;
// the caller falls back to the symbolic path.
func flatten(body []snode, base int64, pick func(snode) int, out *[]event, limit int) bool {
	for _, n := range body {
		if n.loop != nil {
			for i := int64(0); i < n.loop.trips; i++ {
				if !flatten(n.loop.body, base+n.loop.at+i*n.loop.iterLen, pick, out, limit) {
					return false
				}
			}
			continue
		}
		for k := 0; k < pick(n); k++ {
			if len(*out) >= limit {
				return false
			}
			*out = append(*out, event{at: base + n.at, instr: n.instr})
		}
	}
	return true
}

func pickSend(n snode) int { return n.send }
func pickRecv(n snode) int { return n.recv }

// boundary is one loop-body end crossed by the cell sequencer: the cell
// pops one IU control signal per boundary, at the cycle of the
// iteration's last instruction, innermost first.
type boundary struct {
	at   int64
	id   int
	more bool
}

// elaborate enumerates the cell side exactly, once: the time of every
// memory reference (when the program makes at most enumEventLimit of
// them) and the boundary-crossing sequence, by stepping mcode's
// sequencer over the decoded program (when the program runs at most
// emuCycleLimit cycles).  The program is structurally valid by now, so
// cs.cycles is the sequencer's cycle count.
func (cs *cellStreams) elaborate(memRefs, signals int64) {
	if cs.memEnum = memRefs <= enumEventLimit; cs.memEnum {
		cs.memRefs = make([]event, 0, memRefs)
		flatten(cs.mem, 0, pickSend, &cs.memRefs, enumEventLimit)
	}
	if cs.boundsEnum = cs.cycles <= emuCycleLimit; cs.boundsEnum {
		cs.bounds = make([]boundary, 0, signals)
		s := mcode.Seq{Iter: make([]int64, cs.code.Depth)}
		for t := int64(0); s.PC < len(cs.code.Words); t++ {
			w := &cs.code.Words[s.PC]
			crossed, again := s.Advance(w.Depth, w.Ends)
			for i, e := range w.Ends[:crossed] {
				cs.bounds = append(cs.bounds, boundary{at: t, id: e.ID, more: again && i == crossed-1})
			}
		}
	}
}
