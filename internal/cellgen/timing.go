package cellgen

import (
	"warp/internal/mcode"
	"warp/internal/skew"
	"warp/internal/w2"
)

// Timing reduces a generated cell program to its timed I/O programs,
// one per channel: every receive becomes an Input event and every send
// an Output event at its exact cycle.  These are the inputs to the
// minimum-skew and queue-occupancy analyses.  (The program must be
// unidirectional, which the driver validates before code generation,
// so receive/send direction needs no further distinction here.)
func Timing(p *mcode.CellProgram) map[w2.Channel]*skew.Prog {
	// A body folds to its elements per channel; ids numbers the
	// receives and the sends of each channel.
	type elems [2][]skew.Elem
	var ids [2][2]int
	bodies, n := mcode.Fold(p.Items, elems{}, func(b elems, in *mcode.Instr, s *mcode.CellSite) elems {
		for j := range in.IO {
			io := &in.IO[j]
			kind, slot := skew.Output, 1
			if io.Recv {
				kind, slot = skew.Input, 0
			}
			b[io.Chan] = append(b[io.Chan], &skew.Op{Kind: kind, ID: ids[io.Chan][slot], At: s.At})
			ids[io.Chan][slot]++
		}
		return b
	}, func(elems, *mcode.LoopItem, *mcode.CellSite) elems { return elems{} },
		func(b elems, l *mcode.LoopItem, s *mcode.CellSite, iterLen int64, body elems) elems {
			for ch, e := range body {
				if len(e) > 0 {
					b[ch] = append(b[ch], &skew.Loop{At: s.At, Trips: l.Trips, IterLen: iterLen, Body: e})
				}
			}
			return b
		})
	return map[w2.Channel]*skew.Prog{
		w2.ChanX: {Body: bodies[w2.ChanX], Len: n},
		w2.ChanY: {Body: bodies[w2.ChanY], Len: n},
	}
}
