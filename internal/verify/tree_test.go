package verify

import (
	"math/rand"
	"testing"
)

// Quick-check of the structural evaluation on hand-built random stream
// trees: nesting to depth 4, per-iteration nets of either sign, periods
// from one cycle (≪ any shift) to hundreds (≫ it), trip counts to 10⁶.

// randBody builds a random body and returns it with its length in
// cycles.  trips bounds the product of trip counts still to hand out.
func randBody(rng *rand.Rand, depth int, trips int64) ([]snode, int64) {
	var body []snode
	var at int64
	for n := 1 + rng.Intn(4); n > 0; n-- {
		at += int64(rng.Intn(4))
		if depth > 0 && rng.Intn(3) == 0 {
			t := []int64{1, 2, 3, 6, 1000, 1000000}[rng.Intn(6)]
			t = max(1, min(t, trips))
			inner, length := randBody(rng, depth-1, trips/t)
			length += int64(rng.Intn(3))
			body = append(body, snode{at: at, loop: &sloop{trips: t, iterLen: length, body: inner}})
			at += t * length
			continue
		}
		leaf := snode{at: at, instr: rng.Intn(100), send: rng.Intn(3), recv: rng.Intn(3)}
		if leaf.send+leaf.recv == 0 {
			leaf.send = 1
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
func reshape(rng *rand.Rand, body []snode) []snode {
	out := make([]snode, 0, len(body))
	for _, n := range body {
		l := n.loop
		switch {
		case l == nil:
			n.send, n.recv = rng.Intn(2), 1+rng.Intn(2)
		case rng.Intn(3) == 0 && l.iterLen%2 == 0:
			p := l.iterLen / 2
			n.loop = &sloop{trips: l.trips * 2, iterLen: p, body: []snode{{at: int64(rng.Intn(int(p))), recv: 1 + rng.Intn(2)}}}
		default:
			n.loop = &sloop{trips: l.trips, iterLen: l.iterLen, body: reshape(rng, l.body)}
		}
		out = append(out, n)
	}
	return out
}

// shifted copies a body, moved by delta cycles.
func shifted(body []snode, delta int64) []snode {
	out := append([]snode(nil), body...)
	for i := range out {
		out[i].at += delta
	}
	return out
}

// reroll returns a different tree for the same event stream: loops are
// at random split in two, unrolled twice or peeled, recursively, so that
// the periods and trip counts the evaluator reasons over change and the
// answer may not.
func reroll(rng *rand.Rand, body []snode) []snode {
	var out []snode
	for _, n := range body {
		l := n.loop
		if l == nil {
			out = append(out, n)
			continue
		}
		inner := reroll(rng, l.body)
		loop := func(at, trips, iterLen int64, body []snode) snode {
			return snode{at: at, loop: &sloop{trips: trips, iterLen: iterLen, body: body}}
		}
		switch mode := rng.Intn(4); {
		case mode == 0 && l.trips >= 2: // split
			t1 := 1 + rng.Int63n(l.trips-1)
			out = append(out, loop(n.at, t1, l.iterLen, inner), loop(n.at+t1*l.iterLen, l.trips-t1, l.iterLen, inner))
		case mode == 1 && l.trips%2 == 0: // unroll
			twice := append(shifted(inner, 0), shifted(inner, l.iterLen)...)
			out = append(out, loop(n.at, l.trips/2, 2*l.iterLen, twice))
		case mode == 2 && l.trips >= 2: // peel
			out = append(out, shifted(inner, n.at)...)
			out = append(out, loop(n.at+l.iterLen, l.trips-1, l.iterLen, inner))
		default:
			out = append(out, loop(n.at, l.trips, l.iterLen, inner))
		}
	}
	return out
}

// clone deep-copies a tree, so that sealing one use of a body does not
// disturb another (reroll shares bodies between the loops it makes).
func clone(body []snode) []snode {
	out := append([]snode(nil), body...)
	for i := range out {
		if l := out[i].loop; l != nil {
			cp := *l
			cp.body = clone(l.body)
			out[i].loop = &cp
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
		sends, r := treeCount(pushes)
		s, recvs := treeCount(pops)
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
		treeCount(again)
		againPops := pops
		if iter%2 == 0 {
			againPops = again
		}
		for _, shift := range quickShifts {
			var evals, evalsAgain int64
			peak, low, ok := evaluate(pushes, pops, shift+1, &evals)
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
			if p2, l2, ok := evaluate(again, againPops, shift+1, &evalsAgain); !ok || p2 != peak || l2 != low {
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
	pushes := []snode{{loop: &sloop{trips: 2 * enumEventLimit, iterLen: 1, body: []snode{{send: 1}}}}}
	pops := []snode{{loop: &sloop{trips: enumEventLimit, iterLen: 2, body: []snode{{at: 1, recv: 2}}}}}
	treeCount(pushes)
	treeCount(pops)
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
func pushesAsPops(body []snode) []snode {
	out := clone(body)
	for i := range out {
		out[i].send, out[i].recv = 0, out[i].send
		if l := out[i].loop; l != nil {
			l.body = pushesAsPops(l.body)
		}
	}
	treeCount(out)
	return out
}
