package cellgen

import (
	"warp/internal/mcode"
	"warp/internal/skew"
	"warp/internal/w2"
)

// Timing reduces a generated cell program to its timed I/O programs,
// one per channel: skew.CellStreams(p).Timing(); kept for benchmark/,
// see ROADMAP 1(c).
func Timing(p *mcode.CellProgram) map[w2.Channel]*skew.Prog {
	return skew.CellStreams(p).Timing()
}
