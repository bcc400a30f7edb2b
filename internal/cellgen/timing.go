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
	progs := map[w2.Channel]*skew.Prog{
		w2.ChanX: {},
		w2.ChanY: {},
	}
	ids := map[w2.Channel]*[2]int{
		w2.ChanX: {},
		w2.ChanY: {},
	}
	bodies := make(map[w2.Channel][]skew.Elem)
	n := timingItems(p.Items, progs, ids, bodies)
	for ch, p := range progs {
		p.Body = bodies[ch]
		p.Len = n
	}
	return progs
}

// timingItems converts a code-item list, returning its length in
// cycles and appending per-channel elements to bodies.
func timingItems(items []mcode.CodeItem, progs map[w2.Channel]*skew.Prog, ids map[w2.Channel]*[2]int, bodies map[w2.Channel][]skew.Elem) int64 {
	var at int64
	for _, it := range items {
		switch it := it.(type) {
		case *mcode.Straight:
			for i, in := range it.Instrs {
				for j := range in.IO {
					io := &in.IO[j]
					kind := skew.Output
					slot := 1
					if io.Recv {
						kind = skew.Input
						slot = 0
					}
					id := &ids[io.Chan][slot]
					bodies[io.Chan] = append(bodies[io.Chan], &skew.Op{
						Kind: kind, ID: *id, At: at + int64(i),
					})
					*id++
				}
			}
			at += int64(len(it.Instrs))
		case *mcode.LoopItem:
			inner := make(map[w2.Channel][]skew.Elem)
			iterLen := timingItems(it.Body, progs, ids, inner)
			for ch, body := range inner {
				if len(body) == 0 {
					continue
				}
				bodies[ch] = append(bodies[ch], &skew.Loop{
					At: at, Trips: it.Trips, IterLen: iterLen, Body: body,
				})
			}
			at += iterLen * it.Trips
		}
	}
	return at
}
