package verify

import "warp/internal/skew"

// streams.go enumerates the timed event streams skew.CellStreams reads
// off the microcode (and decodeIU, iu.go, off the IU's).  The queue
// proofs of queue.go evaluate the trees in place and never expand a trip
// count; only each (and flatten on top of it) enumerates dynamic events,
// to name the offending event once a proof has failed.
//
// Cell time is the instruction's ordinal in the dynamic execution, so
// the nth instruction of cell k runs at machine cycle start_k + n with
// start_k = Lead + k·Skew.

// event is one dynamic stream event at an absolute cycle.
type event struct {
	at    int64
	instr int
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
