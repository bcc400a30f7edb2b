package cellgen

import (
	"warp/internal/mcode"
	"warp/internal/skew"
	"warp/internal/w2"
)

// Timing reduces a generated cell program to its timed I/O programs,
// one per channel: the data streams of skew.CellStreams, whose receives
// are the Input events and whose sends the Output events.  These are
// the inputs to the minimum-skew and queue-occupancy analyses.  (The
// program must be unidirectional, which the driver validates before code
// generation, so receive/send direction needs no further distinction
// here.)
func Timing(p *mcode.CellProgram) map[w2.Channel]*skew.Prog {
	s := skew.CellStreams(p)
	return map[w2.Channel]*skew.Prog{
		w2.ChanX: {Body: s.Data[w2.ChanX], Len: s.Len},
		w2.ChanY: {Body: s.Data[w2.ChanY], Len: s.Len},
	}
}
