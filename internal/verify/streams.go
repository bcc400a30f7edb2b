package verify

import (
	"warp/internal/mcode"
	"warp/internal/skew"
	"warp/internal/w2"
)

// streams.go reduces the microcode to timed event streams — the
// verifier's own reading of the programs, independent of the code
// generators' bookkeeping.  A stream is a tree: leaves carry event
// counts at one cycle, loops keep their trip count.  The queue proofs of
// queue.go evaluate these trees in place and never expand a trip count;
// only each (and flatten on top of it) enumerates dynamic events, to name
// the offending event once a proof has failed.  The IU's trees are read
// by decodeIU (iu.go).
//
// The cell program's µPC numbering is mcode.Fold's order, listing order,
// which the fold hands every instruction.
//
// Cell time is the instruction's ordinal in the dynamic execution:
// every cell executes exactly one microinstruction per cycle, so the
// nth instruction of cell k runs at machine cycle start_k + n with
// start_k = Lead + k·Skew.

// event is one dynamic stream event at an absolute cycle.
type event struct {
	at    int64
	instr int
}

// cellStreams is everything the verifier derives from one cell program.
type cellStreams struct {
	data map[w2.Channel][]skew.Node // send/recv counts per data channel
	// The streams every cell consumes from its left neighbour the cycle it
	// forwards them to its right one, so a leaf's send and recv are equal:
	// memory references (Adr queue), and loop boundaries (Sig queue) — one
	// leaf per loop, at the iteration's last cycle, innermost first.
	mem, bnd []skew.Node
}

// Stream slots of buildCellStreams' walk.
const (
	slotX = iota
	slotY
	slotMem
	slotBnd
	numSlots
)

// buildCellStreams folds the cell program once, structurally: a body
// folds to its nodes per stream slot.
func buildCellStreams(p *mcode.CellProgram) *cellStreams {
	type slots [numSlots][]skew.Node
	out, _ := mcode.Fold(p.Items, &slots{}, func(out *slots, in *mcode.Instr, s *mcode.CellSite) *slots {
		// One leaf per (instruction, stream), so a cycle carrying both a
		// send and a receive keeps them together.
		var leaf [numSlots]skew.Node
		for i := range in.IO {
			io, n := &in.IO[i], &leaf[slotX]
			if io.Chan == w2.ChanY {
				n = &leaf[slotY]
			}
			if io.Recv {
				n.Recv++
			} else {
				n.Send++
			}
		}
		for i := range in.Mem {
			if in.Mem[i].Kind != mcode.MemNone {
				leaf[slotMem].Send++
				leaf[slotMem].Recv++
			}
		}
		for k, n := range leaf {
			if n.Send > 0 || n.Recv > 0 {
				n.At, n.Instr = s.At, s.PC
				out[k] = append(out[k], n)
			}
		}
		return out
	}, func(*slots, *mcode.LoopItem, *mcode.CellSite) *slots { return &slots{} },
		func(out *slots, l *mcode.LoopItem, s *mcode.CellSite, n int64, inner *slots) *slots {
			if n > 0 {
				inner[slotBnd] = append(inner[slotBnd], skew.Node{At: n - 1, Instr: l.ID, Send: 1, Recv: 1})
			}
			for k, body := range inner {
				if len(body) > 0 {
					out[k] = append(out[k], skew.Node{At: s.At, Loop: &skew.Nest{Trips: l.Trips, IterLen: n, Body: body}})
				}
			}
			return out
		})
	return &cellStreams{
		data: map[w2.Channel][]skew.Node{w2.ChanX: out[slotX], w2.ChanY: out[slotY]},
		mem:  out[slotMem],
		bnd:  out[slotBnd],
	}
}

// each visits every dynamic leaf of the stream in time order with its
// absolute cycle; last reports whether the leaf's enclosing loop is in
// its final iteration (for a boundary leaf: the sequencer falls through).
func each(body []skew.Node, base int64, last bool, f func(n *skew.Node, at int64, last bool)) {
	for i := range body {
		n := &body[i]
		if l := n.Loop; l != nil {
			for k := int64(0); k < l.Trips; k++ {
				each(l.Body, base+n.At+k*l.IterLen, k == l.Trips-1, f)
			}
		} else {
			f(n, base+n.At, last)
		}
	}
}

// flatten enumerates every dynamic event of the selected kind in time
// order.  pick selects how many events a leaf yields (sends or recvs).
// ok is false when the stream (sealed by skew.Seal) holds more than
// enumEventLimit events of either kind; every leaf carries one, so that
// bounds the walk as well as the result.
func flatten(body []skew.Node, pick func(*skew.Node) int) (out []event, ok bool) {
	sends, recvs := skew.Count(body, skew.Forever)
	if max(sends, recvs) > enumEventLimit {
		return nil, false
	}
	out = make([]event, 0, max(sends, recvs))
	each(body, 0, true, func(n *skew.Node, at int64, _ bool) {
		for k := pick(n); k > 0; k-- {
			out = append(out, event{at: at, instr: n.Instr})
		}
	})
	return out, true
}

func pickSend(n *skew.Node) int { return n.Send }
func pickRecv(n *skew.Node) int { return n.Recv }
