// Package commgraph implements the communication-cycle analysis of
// §5.1.1: the computation of the array is represented as a graph with
// one set of nodes (all cells run the same function) and two kinds of
// edges — intra-cell computation dependences and inter-cell
// communication edges labelled by direction.  A "right" edge connects a
// send-to-right to the neighbour's receive-from-left; a "left" edge
// connects a send-to-left to a receive-from-right.
//
// A right cycle (a communication edge labelled "right" completing a
// cycle) forces a cell to be skewed after its left neighbour; a left
// cycle forces the opposite.  A program with both kinds of cycle cannot
// be mapped onto the skewed computation model.  Because every cell runs
// the same code, a right cycle exists exactly when some send-to-right
// is data-dependent on some receive-from-left, and symmetrically for
// left cycles.
package commgraph

import (
	"fmt"

	"warp/internal/ir"
	"warp/internal/opt"
	"warp/internal/w2"
)

// Analysis reports the communication structure of a cell program.
type Analysis struct {
	// UsesRightward: the program sends data to the right (or receives
	// from the left) — data flowing host→array→host.
	UsesRightward bool
	// UsesLeftward: the program sends data to the left (or receives
	// from the right).
	UsesLeftward bool
	// RightCycle: some send-to-right depends on a receive-from-left.
	RightCycle bool
	// LeftCycle: some send-to-left depends on a receive-from-right.
	LeftCycle bool
}

// Mappable reports whether the program fits the skewed computation
// model: it must not contain both right and left cycles.
func (a Analysis) Mappable() bool { return !(a.RightCycle && a.LeftCycle) }

// Unidirectional reports whether all communication flows one way,
// which is what the paper's compiler (and ours) accepts.
func (a Analysis) Unidirectional() bool { return !(a.UsesRightward && a.UsesLeftward) }

// Analyze inspects every function of the program.
func Analyze(p *ir.Program) Analysis {
	var a Analysis
	for _, fn := range p.Funcs {
		var recvL, recvR, sendL, sendR []*ir.Node
		ir.Walk(fn.Regions, func(b *ir.Block) {
			for _, n := range b.Nodes {
				switch {
				case n.Op == ir.OpRecv && n.Dir == w2.DirL:
					recvL = append(recvL, n)
				case n.Op == ir.OpRecv && n.Dir == w2.DirR:
					recvR = append(recvR, n)
				case n.Op == ir.OpSend && n.Dir == w2.DirL:
					sendL = append(sendL, n)
				case n.Op == ir.OpSend && n.Dir == w2.DirR:
					sendR = append(sendR, n)
				}
			}
		})
		if len(recvL)+len(sendR) > 0 {
			a.UsesRightward = true
		}
		if len(recvR)+len(sendL) > 0 {
			a.UsesLeftward = true
		}
		if (len(recvL) == 0 || len(sendR) == 0) && (len(recvR) == 0 || len(sendL) == 0) {
			continue // no send a cycle could close through
		}
		// One traversal labels what depends on a receive from the left
		// (fromL) and on a receive from the right (fromR).
		const fromL, fromR = 1, 2
		reach := opt.GlobalDeps(fn).Reachable(recvL, recvR)
		a.RightCycle = a.RightCycle || anyLabelled(reach, sendR, fromL)
		a.LeftCycle = a.LeftCycle || anyLabelled(reach, sendL, fromR)
	}
	return a
}

// anyLabelled reports whether some node's label, indexed by node id,
// has the bit set.
func anyLabelled(label []uint, nodes []*ir.Node, bit uint) bool {
	for _, n := range nodes {
		if label[n.ID]&bit != 0 {
			return true
		}
	}
	return false
}

// Check is Analyze(p).Check(p, ncells).
func Check(p *ir.Program, ncells int) error { return Analyze(p).Check(p, ncells) }

// Check validates the analyzed program p against the restrictions of
// §5.1: it must be mappable onto the skewed computation model, and (like
// the paper's compiler) we additionally require unidirectional flow.
// Sends must also be balanced with receives: within one homogeneous
// program, cell i+1 receives from its left exactly what cell i sends to
// its right, so the static counts must agree.  A single-cell array has no
// interior boundary, so the conservation requirement is waived there.
func (a Analysis) Check(p *ir.Program, ncells int) error {
	if !a.Mappable() {
		return fmt.Errorf("commgraph: program has both right and left communication cycles and cannot be mapped onto the skewed computation model (§5.1.1)")
	}
	if !a.Unidirectional() {
		return fmt.Errorf("commgraph: program sends data both leftward and rightward; the compiler handles unidirectional flow only (§5.1.1)")
	}
	if ncells <= 1 {
		return nil
	}
	for _, fn := range p.Funcs {
		for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
			if recv, send := fn.NumRecv[w2.DirL][ch], fn.NumSend[w2.DirR][ch]; recv != send {
				return fmt.Errorf("commgraph: function %s receives %d from the left but sends %d to the right on channel %s; homogeneous cells must conserve the stream (insert dummy sends, as in the paper's Figure 4-1)",
					fn.Decl.Name, recv, send, ch)
			}
			if recv, send := fn.NumRecv[w2.DirR][ch], fn.NumSend[w2.DirL][ch]; recv != send {
				return fmt.Errorf("commgraph: function %s receives %d from the right but sends %d to the left on channel %s; homogeneous cells must conserve the stream",
					fn.Decl.Name, recv, send, ch)
			}
		}
	}
	return nil
}
