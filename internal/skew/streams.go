package skew

import (
	"warp/internal/mcode"
	"warp/internal/w2"
)

// Streams are the timed event streams of one cell program, read off its
// microcode: a leaf carries event counts at one cycle, a loop keeps its
// trip count.  The compiler's skew stage searches the data streams
// (Timing) and bounds the forwarded ones (CheckForwarded); the verifier
// proves all four.
//
// The program's µPC numbering is mcode.Fold's order, listing order,
// which the fold hands every instruction; a leaf's Instr is its µPC.
//
// Cell time is the instruction's ordinal in the dynamic execution:
// every cell executes exactly one microinstruction per cycle.
type Streams struct {
	Data [2][]Node // send/recv counts per data channel, indexed by w2.Channel
	// The streams every cell consumes from its left neighbour the cycle it
	// forwards them to its right one, so a leaf's send and recv are equal:
	// memory references (Adr queue), and loop boundaries (Sig queue) — one
	// leaf per loop, at the iteration's last cycle (its Instr the loop's
	// ID), innermost first.
	Mem, Bnd []Node
	Len      int64 // the program's cycles
}

// Stream slots of CellStreams' fold: the data channels, then Mem and Bnd.
const (
	slotMem = 2 + iota
	slotBnd
	numSlots
)

// CellStreams folds the cell program once, structurally: a body folds to
// its nodes per stream slot.  Every stream comes out sealed.
func CellStreams(p *mcode.CellProgram) *Streams {
	type slots [numSlots][]Node
	out, cycles := mcode.Fold(p.Items, &slots{}, func(out *slots, in *mcode.Instr, s *mcode.CellSite) *slots {
		// One leaf per (instruction, stream), so a cycle carrying both a
		// send and a receive keeps them together.
		var leaf [numSlots]Node
		for i := range in.IO {
			io := &in.IO[i]
			if io.Recv {
				leaf[io.Chan].Recv++
			} else {
				leaf[io.Chan].Send++
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
				inner[slotBnd] = append(inner[slotBnd], Node{At: n - 1, Instr: l.ID, Send: 1, Recv: 1})
			}
			for k := range numSlots { // not a range over *slots: go1.24.0's compiler crashes on it
				if len(inner[k]) > 0 {
					out[k] = append(out[k], Node{At: s.At, Loop: &Nest{Trips: l.Trips, IterLen: n, Body: inner[k]}})
				}
			}
			return out
		})
	for k := range numSlots {
		Seal(out[k])
	}
	return &Streams{Data: [2][]Node{out[w2.ChanX], out[w2.ChanY]}, Mem: out[slotMem], Bnd: out[slotBnd], Len: cycles}
}

// Timing is the data streams as the timed I/O programs the skew analysis
// reads, one per channel.  The driver refuses leftward flow before code
// generation, so a receive is an Input and a send an Output.
func (s *Streams) Timing() map[w2.Channel]*Prog {
	return map[w2.Channel]*Prog{
		w2.ChanX: {Body: s.Data[w2.ChanX], Len: s.Len},
		w2.ChanY: {Body: s.Data[w2.ChanY], Len: s.Len},
	}
}
