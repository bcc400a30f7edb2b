package skew

import (
	"math/rand"
	"testing"
)

// The evaluator against the walk it replaced (reference_test.go), on
// random sealed trees: verify's TestStructuralQuickCheck trees (random
// bodies, their pops reshaped), and nests of 2-trip loops 8–12 deep —
// FFT's bit-reversal recursion, where the reuse of a context's walk
// pays — at random lags and budgets, some of them exhausted.

// randBody builds a random body and returns it with its length in
// cycles: verify's quick-check generator.  trips bounds the product of
// trip counts still to hand out.
func randBody(rng *rand.Rand, depth int, trips int64) ([]Node, int64) {
	var body []Node
	var at int64
	for n := 1 + rng.Intn(4); n > 0; n-- {
		at += int64(rng.Intn(4))
		if depth > 0 && rng.Intn(3) == 0 {
			t := []int64{1, 2, 3, 6, 1000, 1000000}[rng.Intn(6)]
			t = max(1, min(t, trips))
			inner, length := randBody(rng, depth-1, trips/t)
			length += int64(rng.Intn(3))
			body = append(body, Node{At: at, Loop: &Nest{Trips: t, IterLen: length, Body: inner}})
			at += t * length
			continue
		}
		leaf := Node{At: at, Instr: rng.Intn(100), Send: rng.Intn(3), Recv: rng.Intn(3)}
		if leaf.Send+leaf.Recv == 0 {
			leaf.Send = 1
		}
		body = append(body, leaf)
		at++
	}
	return body, at
}

// reshape returns a stream over the same cycles with the same loops but
// other events in them, some loops twice as fine: verify's quick-check
// pops.
func reshape(rng *rand.Rand, body []Node) []Node {
	out := make([]Node, 0, len(body))
	for _, n := range body {
		l := n.Loop
		switch {
		case l == nil:
			n.Send, n.Recv = rng.Intn(2), 1+rng.Intn(2)
		case rng.Intn(3) == 0 && l.IterLen%2 == 0:
			p := l.IterLen / 2
			n.Loop = &Nest{Trips: l.Trips * 2, IterLen: p, Body: []Node{{At: int64(rng.Intn(int(p))), Recv: 1 + rng.Intn(2)}}}
		default:
			n.Loop = &Nest{Trips: l.Trips, IterLen: l.IterLen, Body: reshape(rng, l.Body)}
		}
		out = append(out, n)
	}
	return out
}

// twoTripNest builds a nest of depth 2-trip loops, each level's body a
// few events around the next level, and returns it with its length.
func twoTripNest(rng *rand.Rand, depth int) ([]Node, int64) {
	var body []Node
	var at int64
	leaves := func() {
		for n := rng.Intn(3); n > 0; n-- {
			at += int64(rng.Intn(3))
			body = append(body, Node{At: at, Send: rng.Intn(2), Recv: rng.Intn(2)})
			at++
		}
	}
	leaves()
	if depth > 0 {
		inner, length := twoTripNest(rng, depth-1)
		length += int64(rng.Intn(3))
		at += int64(rng.Intn(2))
		body = append(body, Node{At: at, Loop: &Nest{Trips: 2, IterLen: length, Body: inner}})
		at += 2 * length
	} else {
		body = append(body, Node{At: at, Send: 1, Recv: 1})
		at++
	}
	leaves()
	return body, at
}

func TestReuseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const unlimited = 1 << 16
	compared, exhausted, reusedEvals := 0, 0, int64(0)
	check := func(what string, pushes, pops []Node, length int64) {
		t.Helper()
		Seal(pushes)
		Seal(pops)
		for range 4 {
			lag := rng.Int63n(2*length + 2)
			var refEvals int64
			refEvaluate(pushes, pops, lag, unlimited, &refEvals)
			budget := int64(unlimited)
			if rng.Intn(4) == 0 {
				budget = rng.Int63n(refEvals + 1)
			}
			var wantEvals, gotEvals int64
			wantPeak, wantLow, wantOK := refEvaluate(pushes, pops, lag, budget, &wantEvals)
			o := occupancy{pops: pops, lag: lag, budget: budget}
			o.walk(pushes, 0, 0)
			gotPeak, gotLow, gotOK := Evaluate(pushes, pops, lag, budget, &gotEvals)
			if gotPeak != wantPeak || gotLow != wantLow || gotOK != wantOK || gotEvals != wantEvals {
				t.Fatalf("%s at lag %d, budget %d: (peak %d, low %d, ok %v, evals %d), the reference (%d, %d, %v, %d)",
					what, lag, budget, gotPeak, gotLow, gotOK, gotEvals, wantPeak, wantLow, wantOK, wantEvals)
			}
			compared++
			if !wantOK {
				exhausted++
			}
			reusedEvals += o.reused
		}
	}
	for iter := range 1500 {
		pushes, length := randBody(rng, 4, []int64{200, 1000000, 1e12}[iter%3])
		pops := pushes
		if iter%2 == 1 {
			pops = reshape(rng, pushes)
		}
		check("random tree", pushes, pops, length)
	}
	for iter := range 200 {
		depth := 8 + rng.Intn(5)
		pushes, length := twoTripNest(rng, depth)
		var pops []Node
		switch iter % 3 {
		case 0:
			pops = pushes
		case 1:
			pops = reshape(rng, pushes)
		default: // another nest, one level deeper or shallower
			pops, _ = twoTripNest(rng, depth-1+2*rng.Intn(2))
		}
		check("2-trip nest", pushes, pops, length)
	}
	t.Logf("%d comparisons, %d with the budget exhausted, %d evaluations stood for by reuse", compared, exhausted, reusedEvals)
	if exhausted < compared/10 || reusedEvals == 0 {
		t.Errorf("%d of %d comparisons exhaust the budget and reuse stands for %d evaluations; the generator is too weak", exhausted, compared, reusedEvals)
	}
}
