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

// Events returns the operations of kind k the leaf n carries.
func (n *Node) Events(k Kind) int64 {
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
			for c := n.Events(k); c > 0; c-- {
				fmt.Fprintf(sb, "%s@%d %s(%d)\n", indent, n.At, k, ids[k])
				ids[k]++
			}
		}
	}
}
