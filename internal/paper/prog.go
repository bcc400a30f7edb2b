// Package paper reproduces the paper's analyses that the compiler does
// not run: the SIMD/skewed comparison of §3 (Figure 3-1), the
// characteristic vectors and closed-form timing functions of §6.2.1
// (Tables 6-1…6-4), their pairwise minimum-skew bound, the two-cell
// trace of Figure 6-3, the variable-skew alternative, and the IU operand
// selection of §6.3.2 (Table 6-5).  Its enumerating Times, MinSkewExact
// and MaxOccupancy are the oracle the compiler's structural skew
// analysis (internal/skew) is tested against.  cmd/warpbench and
// examples/skewlab print it; no compiler stage imports it.
package paper

import (
	"fmt"
	"strings"

	"warp/internal/skew"
)

// Times enumerates the execution cycle of every dynamic operation of
// kind k of p, in ordinal order: Times(p, k)[n] is the cycle the nth
// operation executes, relative to the start of the program.  This is the
// exact (enumerated) form of the timing function τ; the closed form is
// computed by Statements/TimingFunc.
func Times(p *skew.Prog, k skew.Kind) []int64 {
	out := make([]int64, 0, p.Count(k))
	EachTime(p, k, func(_, t int64) bool {
		out = append(out, t)
		return true
	})
	return out
}

// EachTime calls f(n, t) for the nth dynamic operation of kind k of p
// executing at cycle t, without materializing the whole sequence.  It
// stops early if f returns false.
func EachTime(p *skew.Prog, k skew.Kind, f func(n, t int64) bool) {
	n := int64(0)
	eachTime(p.Body, k, 0, &n, f)
}

func eachTime(body []skew.Node, k skew.Kind, base int64, n *int64, f func(n, t int64) bool) bool {
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
		for c := nd.Events(k); c > 0; c-- {
			if !f(*n, base+nd.At) {
				return false
			}
			*n++
		}
	}
	return true
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
type ioItem struct{ kind skew.Kind }
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
func In() Item { return ioItem{skew.Input} }

// Out is a one-cycle output (send) instruction.
func Out() Item { return ioItem{skew.Output} }

// Rep is a loop executing body trips times.
func Rep(trips int64, body ...Item) Item { return repItem{trips, body} }

// Build assembles an abstract instruction sequence into a timed
// program.  Statements are numbered in textual order per kind, matching
// the paper's I(0), I(1), O(0)... numbering.
func Build(items ...Item) *skew.Prog {
	body, n := buildItems(items)
	skew.Seal(body)
	return &skew.Prog{Body: body, Len: n}
}

func buildItems(items []Item) ([]skew.Node, int64) {
	var body []skew.Node
	var at int64
	for _, it := range items {
		switch it := it.(type) {
		case ioItem:
			n := skew.Node{At: at, Recv: 1}
			if it.kind == skew.Output {
				n = skew.Node{At: at, Send: 1}
			}
			body = append(body, n)
		case repItem:
			inner, n := buildItems(it.body)
			body = append(body, skew.Node{At: at, Loop: &skew.Nest{Trips: it.trips, IterLen: n, Body: inner}})
			at += n * it.trips
			continue
		}
		at++
	}
	return body, at
}

// Constructors for the abstract I/O programs of the paper's worked
// examples, shared by the tests and the benchmark harness.

// Fig62 is the straight-line program of Figure 6-2:
//
//	output / input / input / nop / nop / output
//
// with two matched input/output pairs and minimum skew 3 (Table 6-1).
func Fig62() *skew.Prog {
	return Build(Out(), In(), In(), Nop(), Nop(), Out())
}

// Fig64 is the loop program of Figure 6-4:
//
//	nop
//	loop 5 times: input0, input1, nop
//	nop; nop
//	loop 2 times: output0, output1
//	nop; nop
//	loop 2 times: output2, output3, output4, nop, nop
//	nop
//
// whose timing Tables 6-2, 6-3 and 6-4 tabulate; minimum skew 18.
func Fig64() *skew.Prog {
	return Build(
		Nop(),
		Rep(5, In(), In(), Nop()),
		Nop(), Nop(),
		Rep(2, Out(), Out()),
		Nop(), Nop(),
		Rep(2, Out(), Out(), Out(), Nop(), Nop()),
		Nop(),
	)
}

// traceEvent is one I/O operation in a rendered trace.
type traceEvent struct {
	out bool
	n   int64
}

func (e traceEvent) String() string {
	if e.out {
		return fmt.Sprintf("output_%d", e.n)
	}
	return fmt.Sprintf("input_%d", e.n)
}

// TwoCellTrace renders two adjacent cells executing with a given skew,
// in the style of the paper's Figure 6-3: one row per cycle with an
// I/O event, the upstream cell's operations on the left and the
// downstream cell's (shifted by the skew) on the right, labelled with
// their dynamic ordinal numbers.
func TwoCellTrace(p *skew.Prog, skewCycles int64) string {
	collect := func(shift int64) map[int64][]traceEvent {
		m := map[int64][]traceEvent{}
		EachTime(p, skew.Output, func(n, t int64) bool {
			m[t+shift] = append(m[t+shift], traceEvent{out: true, n: n})
			return true
		})
		EachTime(p, skew.Input, func(n, t int64) bool {
			m[t+shift] = append(m[t+shift], traceEvent{out: false, n: n})
			return true
		})
		return m
	}
	cell1 := collect(0)
	cell2 := collect(skewCycles)

	join := func(evs []traceEvent) string {
		parts := make([]string, len(evs))
		for i, e := range evs {
			parts[i] = e.String()
		}
		return strings.Join(parts, " ")
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-22s %-22s\n", "Time", "Cell 1", "Cell 2")
	for t := int64(0); t < p.Len+skewCycles; t++ {
		c1, c2 := join(cell1[t]), join(cell2[t])
		if c1 == "" && c2 == "" {
			continue
		}
		fmt.Fprintf(&sb, "%-6d %-22s %-22s\n", t, c1, c2)
	}
	return sb.String()
}
