package verify

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/sim"
	"warp/internal/skew"
	"warp/internal/w2"
)

// Quick-check of the structural evaluation on hand-built random stream
// trees: nesting to depth 4, per-iteration nets of either sign, periods
// from one cycle (≪ any shift) to hundreds (≫ it), trip counts to 10⁶.

// randBody builds a random body and returns it with its length in
// cycles.  trips bounds the product of trip counts still to hand out.
func randBody(rng *rand.Rand, depth int, trips int64) ([]skew.Node, int64) {
	var body []skew.Node
	var at int64
	for n := 1 + rng.Intn(4); n > 0; n-- {
		at += int64(rng.Intn(4))
		if depth > 0 && rng.Intn(3) == 0 {
			t := []int64{1, 2, 3, 6, 1000, 1000000}[rng.Intn(6)]
			t = max(1, min(t, trips))
			inner, length := randBody(rng, depth-1, trips/t)
			length += int64(rng.Intn(3))
			body = append(body, skew.Node{At: at, Loop: &skew.Nest{Trips: t, IterLen: length, Body: inner}})
			at += t * length
			continue
		}
		leaf := skew.Node{At: at, Instr: rng.Intn(100), Send: rng.Intn(3), Recv: rng.Intn(3)}
		if leaf.Send+leaf.Recv == 0 {
			leaf.Send = 1
		}
		body = append(body, leaf)
		at++
	}
	return body, at
}

// reshape returns a stream over the same cycles with the same loops but
// other events in them — the popping side of a queue between two
// programs in lock step.  Some loops come back m times finer (the IU
// loop that spans m cell iterations, seen from the cell).
func reshape(rng *rand.Rand, body []skew.Node) []skew.Node {
	out := make([]skew.Node, 0, len(body))
	for _, n := range body {
		l := n.Loop
		switch {
		case l == nil:
			n.Send, n.Recv = rng.Intn(2), 1+rng.Intn(2)
		case rng.Intn(3) == 0 && l.IterLen%2 == 0:
			p := l.IterLen / 2
			n.Loop = &skew.Nest{Trips: l.Trips * 2, IterLen: p, Body: []skew.Node{{At: int64(rng.Intn(int(p))), Recv: 1 + rng.Intn(2)}}}
		default:
			n.Loop = &skew.Nest{Trips: l.Trips, IterLen: l.IterLen, Body: reshape(rng, l.Body)}
		}
		out = append(out, n)
	}
	return out
}

// shifted copies a body, moved by delta cycles.
func shifted(body []skew.Node, delta int64) []skew.Node {
	out := append([]skew.Node(nil), body...)
	for i := range out {
		out[i].At += delta
	}
	return out
}

// reroll returns a different tree for the same event stream: loops are
// at random split in two, unrolled twice or peeled, recursively, so that
// the periods and trip counts the evaluator reasons over change and the
// answer may not.
func reroll(rng *rand.Rand, body []skew.Node) []skew.Node {
	var out []skew.Node
	for _, n := range body {
		l := n.Loop
		if l == nil {
			out = append(out, n)
			continue
		}
		inner := reroll(rng, l.Body)
		loop := func(at, trips, iterLen int64, body []skew.Node) skew.Node {
			return skew.Node{At: at, Loop: &skew.Nest{Trips: trips, IterLen: iterLen, Body: body}}
		}
		switch mode := rng.Intn(4); {
		case mode == 0 && l.Trips >= 2: // split
			t1 := 1 + rng.Int63n(l.Trips-1)
			out = append(out, loop(n.At, t1, l.IterLen, inner), loop(n.At+t1*l.IterLen, l.Trips-t1, l.IterLen, inner))
		case mode == 1 && l.Trips%2 == 0: // unroll
			twice := append(shifted(inner, 0), shifted(inner, l.IterLen)...)
			out = append(out, loop(n.At, l.Trips/2, 2*l.IterLen, twice))
		case mode == 2 && l.Trips >= 2: // peel
			out = append(out, shifted(inner, n.At)...)
			out = append(out, loop(n.At+l.IterLen, l.Trips-1, l.IterLen, inner))
		default:
			out = append(out, loop(n.At, l.Trips, l.IterLen, inner))
		}
	}
	return out
}

// clone deep-copies a tree, so that sealing one use of a body does not
// disturb another (reroll shares bodies between the loops it makes).
func clone(body []skew.Node) []skew.Node {
	out := append([]skew.Node(nil), body...)
	for i := range out {
		if l := out[i].Loop; l != nil {
			cp := *l
			cp.Body = clone(l.Body)
			out[i].Loop = &cp
		}
	}
	return out
}

var quickShifts = []int64{0, 1, 2, 3, 7, 50, 1000}

func TestStructuralQuickCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	enumerated, metamorphic, most := 0, 0, int64(0)
	for iter := 0; iter < 3000; iter++ {
		// A third of the trees keep every trip count small, a third may
		// hold one long loop, a third are long at every level.
		budget := []int64{200, 1000000, 1e12}[iter%3]
		pushes, _ := randBody(rng, 4, budget)
		pops := pushes
		if iter%2 == 1 {
			pops = reshape(rng, pushes)
		}
		pushes, pops = clone(pushes), clone(pops)
		sends, r := skew.Seal(pushes)
		s, recvs := skew.Seal(pops)
		if sends == 0 {
			continue
		}
		// Every leaf carries an event, so this bounds the enumeration.
		var pu, po []event
		small := sends+r+s+recvs <= 1<<19
		if small {
			pu, _ = flatten(pushes, pickSend)
			po, _ = flatten(pops, pickRecv)
		}
		// Rerolling the pushes alone keeps the pops' periods dividing
		// theirs, which is the only direction the verifier meets (and the
		// evaluator skips in): the IU's loops span whole cell iterations.
		again := clone(reroll(rng, pushes))
		skew.Seal(again)
		againPops := pops
		if iter%2 == 0 {
			againPops = again
		}
		for _, shift := range quickShifts {
			var evals, evalsAgain int64
			peak, low, ok := skew.Evaluate(pushes, pops, shift+1, enumEventLimit, &evals)
			if !ok {
				t.Fatalf("tree %d shift %d: out of budget after %d evaluations", iter, shift, evals)
			}
			if small {
				if ePeak, eLow := enumerate(pu, po, shift); peak != ePeak || low != eLow {
					t.Fatalf("tree %d shift %d: structural peak %d low %d, enumerated peak %d low %d", iter, shift, peak, low, ePeak, eLow)
				}
				enumerated++
			}
			// The same streams under another loop structure.
			if p2, l2, ok := skew.Evaluate(again, againPops, shift+1, enumEventLimit, &evalsAgain); !ok || p2 != peak || l2 != low {
				t.Fatalf("tree %d shift %d: peak %d low %d, rerolled peak %d low %d (ok=%v)", iter, shift, peak, low, p2, l2, ok)
			}
			metamorphic++
			// A queue between two copies of one stream costs a handful of
			// evaluations per loop level whatever the trip counts: each
			// level visits at most shift/period + 3 of its iterations.
			most = max(most, evals)
			if iter%2 == 0 && evals > 1<<17 {
				t.Errorf("tree %d shift %d: %d evaluations for %d sends", iter, shift, evals, sends)
			}
		}
	}
	t.Logf("%d comparisons with the enumeration, %d with a rerolled tree, at most %d evaluations", enumerated, metamorphic, most)
	if enumerated < 5000 || metamorphic < 10000 {
		t.Errorf("only %d enumerated and %d rerolled comparisons; the generator is too weak", enumerated, metamorphic)
	}
}

// TestQueueProofBudget: pops that repeat with twice the period of the
// pushes share no stretch with them, so the walk degenerates to the plain
// sweep, runs into the work budget, and the queue is left unproven — not
// accepted.
func TestQueueProofBudget(t *testing.T) {
	pushes := []skew.Node{{Loop: &skew.Nest{Trips: 2 * enumEventLimit, IterLen: 1, Body: []skew.Node{{Send: 1}}}}}
	pops := []skew.Node{{Loop: &skew.Nest{Trips: enumEventLimit, IterLen: 2, Body: []skew.Node{{At: 1, Recv: 2}}}}}
	skew.Seal(pushes)
	skew.Seal(pops)
	var evals int64
	if _, ok := proveQueue(pushes, pops, 1, &evals); ok || evals <= enumEventLimit {
		t.Errorf("proveQueue ok=%v after %d evaluations, want unproven at the budget of %d", ok, evals, int64(enumEventLimit))
	}
	// Against itself the same stream is one stretch.
	evals = 0
	if res, ok := proveQueue(pushes, pushesAsPops(pushes), 1, &evals); !ok || res.maxOcc != 2 || evals > 8 {
		t.Errorf("self queue: %+v after %d evaluations (ok=%v), want peak 2 in a handful", res, evals, ok)
	}
}

// pushesAsPops turns every send of a stream into a receive.
func pushesAsPops(body []skew.Node) []skew.Node {
	out := clone(body)
	for i := range out {
		out[i].Send, out[i].Recv = 0, out[i].Send
		if l := out[i].Loop; l != nil {
			l.Body = pushesAsPops(l.Body)
		}
	}
	skew.Seal(out)
	return out
}

// TestQueueUnprovenDiagnostic pins the text of the verifier's refusal
// of a data queue it cannot decide, on TestQueueProofBudget's shape as a
// whole program: a cell receives 2·2²² words two a cycle pair, then sends
// them one a cycle, so at the skew that covers every receive the pops
// repeat with twice the period of the pushes and the walk runs into the
// budget.  At that skew the forwarded signal queue's walk meets the two
// loops' periods as well, and is left unproven too.
// The compiler's skew search shares the evaluator and the budget and
// refuses the program first, so no compile reaches this text; the
// driver's TestCompileRefusalTexts pins the search's refusal.
func TestQueueUnprovenDiagnostic(t *testing.T) {
	const n = enumEventLimit
	recv := mcode.IOOp{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, IsLiteral: true}
	cell := &mcode.CellProgram{Items: []mcode.CodeItem{
		&mcode.LoopItem{ID: 1, Trips: n, Body: []mcode.CodeItem{straight(&mcode.Instr{IO: []mcode.IOOp{recv}}, &mcode.Instr{IO: []mcode.IOOp{recv}})}},
		&mcode.LoopItem{ID: 2, Trips: 2 * n, Body: []mcode.CodeItem{straight(&mcode.Instr{IO: []mcode.IOOp{sendOp(1)}})}},
	}}
	host, err := hostgen.Generate(cell)
	if err != nil {
		t.Fatal(err)
	}
	sig := func(id int, trips int64, nops int) mcode.IUItem {
		body := make([]*mcode.IUInstr, nops+1)
		for i := range body {
			body[i] = &mcode.IUInstr{}
		}
		body[nops].Sig = &mcode.IUSig{LoopID: id, M: 1, CellTrips: trips}
		return &mcode.IULoop{ID: id, Trips: trips, Body: []mcode.IUItem{&mcode.IUStraight{Instrs: body}}}
	}
	p := sim.Config{Cells: 2, Cell: cell, IU: &mcode.IUProgram{Items: []mcode.IUItem{sig(1, n, 1), sig(2, 2*n, 0)}}, Host: host, Skew: 2 * n, Lead: 1}
	var got []string
	if _, err := Verify(sim.Load(p)); err != nil {
		for _, d := range err.(*Error).Diags {
			got = append(got, fmt.Sprintf("%s cell=%d instr=%d loop=%d %q", d.Invariant, d.Cell, d.Instr, d.Loop, d.Detail))
		}
	}
	want := []string{
		`unproven cell=-1 instr=-1 loop=-1 "channel X: occupancy not established within the analysis budget of 4194304 events"`,
		`unproven cell=-1 instr=-1 loop=-1 "Sig queue: occupancy not established within the analysis budget of 4194304 events"`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics changed:\n  got:\n\t%s\n  want:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
	s := skew.CellStreams(cell)
	x := &skew.Prog{Body: s.Data[w2.ChanX], Len: s.Len}
	a, err := skew.NewAnalysis(x, x)
	if err == nil {
		_, _, err = a.MinSkewStats()
	}
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("the skew search decided the queue the verifier leaves unproven: %v", err)
	}
}
