package skew

import "fmt"

// This file implements the queue-occupancy analysis (§6.2.2): with the
// chosen skew, how many words are simultaneously resident in the
// channel queue between two adjacent cells?  The Warp hardware provides
// a 128-word queue per channel and no flow control, so the compiler must
// prove the bound.  Like the paper's compiler, ours detects and reports
// overflow rather than restructuring the program to buffer overflow
// data in cell memory.

// MaxOccupancy computes the maximum number of words resident in the
// queue between an upstream cell executing the output program (starting
// at cycle 0) and a downstream cell executing the input program
// (starting at cycle skew).  A word occupies the queue from the cycle it
// is sent until the cycle it is received.  It enumerates every dynamic
// operation: the oracle Analysis.CheckQueue is tested against.
func MaxOccupancy(out, in *Prog, skew int64) (int64, error) {
	to := out.Times(Output)
	ti := in.Times(Input)
	if len(to) != len(ti) {
		return 0, fmt.Errorf("skew: %d outputs vs %d inputs; send/receive counts must match", len(to), len(ti))
	}
	var cur, maxOcc int64
	i, j := 0, 0
	for i < len(to) || j < len(ti) {
		// At equal times the arriving word is latched while another
		// leaves, so count the send first (conservative peak).
		if i < len(to) && (j >= len(ti) || to[i] <= ti[j]+skew) {
			cur++
			maxOcc = max(maxOcc, cur)
			i++
		} else {
			cur--
			if cur < 0 {
				return 0, fmt.Errorf("skew: receive %d executes at cycle %d before its matching send at cycle %d (queue underflow; skew %d too small)",
					j, ti[j]+skew, to[j], skew)
			}
			j++
		}
	}
	return maxOcc, nil
}
