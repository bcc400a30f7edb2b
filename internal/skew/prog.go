package skew

import (
	"fmt"
	"strings"
)

// Kind distinguishes the two roles an I/O operation plays in the skew
// analysis of one channel: inputs (receives) and outputs (sends).
type Kind int

// I/O kinds.
const (
	Input Kind = iota
	Output
)

func (k Kind) String() string {
	if k == Input {
		return "input"
	}
	return "output"
}

// Prog is a timed I/O program: the I/O behaviour of one compiled cell
// program on one channel, reduced to the cycle-exact times of its send
// and receive operations.  Body is a sealed stream tree (tree.go): a
// leaf's sends are the program's outputs and its receives its inputs,
// and the statements of each kind are numbered by ordinal, in program
// order.  Len is the total execution length in cycles.  Nothing writes
// to a Prog once it is built, so one can be read from many goroutines.
type Prog struct {
	Body []Node
	Len  int64
}

// events returns the operations of kind k the leaf n carries.
func events(n *Node, k Kind) int64 {
	if k == Output {
		return int64(n.Send)
	}
	return int64(n.Recv)
}

// Validate checks structural invariants: nodes in increasing cycle
// order within their body, loops of at least one trip and one cycle.
func (p *Prog) Validate() error { return validateBody(p.Body, p.Len) }

func validateBody(body []Node, length int64) error {
	end := int64(0) // first cycle free after the nodes so far
	for i := range body {
		n := &body[i]
		if n.At < end {
			return fmt.Errorf("skew: node at cycle %d is out of cycle order", n.At)
		}
		l := n.Loop
		if l == nil {
			if end = n.At + 1; end > length {
				return fmt.Errorf("skew: event at cycle %d outside body of %d cycles", n.At, length)
			}
			continue
		}
		if l.Trips < 1 {
			return fmt.Errorf("skew: loop with %d trips", l.Trips)
		}
		if l.IterLen < 1 {
			return fmt.Errorf("skew: loop with iteration length %d", l.IterLen)
		}
		if end = n.At + l.Trips*l.IterLen; end > length {
			return fmt.Errorf("skew: loop [%d,%d) outside body of %d cycles", n.At, end, length)
		}
		if err := validateBody(l.Body, l.IterLen); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of dynamic operations of the given kind.
func (p *Prog) Count(k Kind) int64 {
	sends, recvs := Count(p.Body, Forever)
	if k == Output {
		return sends
	}
	return recvs
}

// Times enumerates the execution cycle of every dynamic operation of
// kind k, in ordinal order: Times(k)[n] is the cycle the nth operation
// executes, relative to the start of the program.  This is the exact
// (enumerated) form of the timing function τ; the closed form is
// computed by Statements/TimingFunc.
func (p *Prog) Times(k Kind) []int64 {
	out := make([]int64, 0, p.Count(k))
	p.EachTime(k, func(_, t int64) bool {
		out = append(out, t)
		return true
	})
	return out
}

// EachTime calls f(n, t) for the nth dynamic operation of kind k
// executing at cycle t, without materializing the whole sequence.
// It stops early if f returns false.
func (p *Prog) EachTime(k Kind, f func(n, t int64) bool) {
	n := int64(0)
	eachTime(p.Body, k, 0, &n, f)
}

func eachTime(body []Node, k Kind, base int64, n *int64, f func(n, t int64) bool) bool {
	for i := range body {
		nd := &body[i]
		if l := nd.Loop; l != nil {
			for j := int64(0); j < l.Trips; j++ {
				if !eachTime(l.Body, k, base+nd.At+j*l.IterLen, n, f) {
					return false
				}
			}
			continue
		}
		for c := events(nd, k); c > 0; c-- {
			if !f(*n, base+nd.At) {
				return false
			}
			*n++
		}
	}
	return true
}

// String renders the program structure.
func (p *Prog) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "prog len=%d\n", p.Len)
	var ids [2]int
	dumpBody(&sb, p.Body, 1, &ids)
	return sb.String()
}

func dumpBody(sb *strings.Builder, body []Node, depth int, ids *[2]int) {
	indent := strings.Repeat("  ", depth)
	for i := range body {
		n := &body[i]
		if l := n.Loop; l != nil {
			fmt.Fprintf(sb, "%s@%d loop %d times, %d cycles/iter\n", indent, n.At, l.Trips, l.IterLen)
			dumpBody(sb, l.Body, depth+1, ids)
			continue
		}
		for k := Input; k <= Output; k++ {
			for c := events(n, k); c > 0; c-- {
				fmt.Fprintf(sb, "%s@%d %s(%d)\n", indent, n.At, k, ids[k])
				ids[k]++
			}
		}
	}
}

// ---------------------------------------------------------------------
// Builder for abstract instruction-sequence programs (one instruction
// per cycle), used to transcribe programs like the paper's Figures 6-2
// and 6-4 directly.

// Item is an element of an abstract instruction sequence.
type Item interface {
	itemLen() int64
}

type nopItem struct{}
type ioItem struct{ kind Kind }
type repItem struct {
	trips int64
	body  []Item
}

func (nopItem) itemLen() int64 { return 1 }
func (ioItem) itemLen() int64  { return 1 }
func (r repItem) itemLen() int64 {
	var n int64
	for _, it := range r.body {
		n += it.itemLen()
	}
	return n * r.trips
}

// Nop is a one-cycle instruction with no I/O.
func Nop() Item { return nopItem{} }

// In is a one-cycle input (receive) instruction.
func In() Item { return ioItem{Input} }

// Out is a one-cycle output (send) instruction.
func Out() Item { return ioItem{Output} }

// Rep is a loop executing body trips times.
func Rep(trips int64, body ...Item) Item { return repItem{trips, body} }

// Build assembles an abstract instruction sequence into a timed
// program.  Statements are numbered in textual order per kind, matching
// the paper's I(0), I(1), O(0)... numbering.
func Build(items ...Item) *Prog {
	body, n := buildItems(items)
	Seal(body)
	return &Prog{Body: body, Len: n}
}

func buildItems(items []Item) ([]Node, int64) {
	var body []Node
	var at int64
	for _, it := range items {
		switch it := it.(type) {
		case ioItem:
			n := Node{At: at, Recv: 1}
			if it.kind == Output {
				n = Node{At: at, Send: 1}
			}
			body = append(body, n)
		case repItem:
			inner, n := buildItems(it.body)
			body = append(body, Node{At: at, Loop: &Nest{Trips: it.trips, IterLen: n, Body: inner}})
			at += n * it.trips
			continue
		}
		at++
	}
	return body, at
}
