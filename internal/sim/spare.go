package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// busy counts the goroutines of the runs in progress, process-wide and on
// both executors: each run's own and the helpers it took.
var busy atomic.Int32

// Enter counts a run in the process-wide budget of processors and grants
// it up to want helper goroutines: as many as keep the count within the
// processors the process may use (GOMAXPROCS, at most the CPUs it may run
// on), without blocking.  So a lone large run on two processors takes one
// helper, and the runs of a process that already keeps its processors
// busy (warpd's workers, the fabric's arrays) take none.  The simulator
// and the fast executor (fastexec.Plan.ExecuteBatch) both enter here, so
// runs of the two never oversubscribe the processors between them.  The
// run gives its share back with Leave.
func Enter(want int) (helpers int) {
	b := busy.Add(1)
	if want <= 0 {
		return 0
	}
	limit := int32(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	for {
		k := min(int32(want), limit-b)
		if k <= 0 {
			return 0
		}
		if busy.CompareAndSwap(b, b+k) {
			return int(k)
		}
		b = busy.Load()
	}
}

// Leave ends a run Enter counted, with the helpers Enter granted it.
func Leave(helpers int) { busy.Add(-1 - int32(helpers)) }

// Fork runs a run's g workers to their end, body(s, 0) on the caller's
// goroutine and body(s, 1) … body(s, g-1) each on a helper of its own,
// and returns once every one has returned.  With g = 1 it is body(s, 0):
// no goroutine, no allocation.  Both executors stream through it: the
// simulator's groups of cells and the fast executor's cell workers.
//
// A worker returns its own first error, or nil once it has none or a
// peer's error has decided the run (each executor stops its workers
// itself, by a stop it polls while it runs and while it waits on a Bell).
// The error returned is the one before ranks first — before(s, a, b)
// reports whether worker a's error precedes worker b's — whatever order
// the workers ended in.  A panic on any worker calls stop(s), which must
// end every other worker's walk, waits for every worker and is raised on
// the caller, the caller's own before a helper's.
func Fork[S any](s S, g int, body func(s S, w int) error, stop func(s S), before func(s S, a, b int) bool) error {
	if g == 1 {
		return body(s, 0)
	}
	type outcome struct {
		err      error
		panicked any
	}
	outs := make([]outcome, g)
	var helpers sync.WaitGroup
	defer func() {
		if r := recover(); r != nil {
			stop(s)
			helpers.Wait()
			panic(r)
		}
	}()
	for w := 1; w < g; w++ {
		helpers.Add(1)
		go func() {
			o := &outs[w]
			defer func() {
				if o.panicked = recover(); o.panicked != nil {
					stop(s)
				}
				helpers.Done()
			}()
			o.err = body(s, w)
		}()
	}
	outs[0].err = body(s, 0)
	helpers.Wait()
	first := -1
	for w, o := range outs {
		if o.panicked != nil {
			panic(o.panicked)
		}
		if o.err != nil && (first < 0 || before(s, w, first)) {
			first = w
		}
	}
	if first < 0 {
		return nil
	}
	return outs[first].err
}

// waitSpins is how many times a waiter yields before it sleeps until its
// Bell rings: a yield is a few hundred ns, the usual wait for a neighbour
// a few µs, and a sleep costs a thread wake-up, ~0.1 ms on the 2-vCPU
// reference host.  A neighbour that does not publish for longer has lost
// its processor, which a spinning waiter would only keep from it.
const waitSpins = 1 << 10

// A Bell wakes the one goroutine that waits for what another goroutine
// publishes.  The waiter spins, yielding its processor, before it sleeps;
// the publisher rings after every publish, which costs one load unless
// the waiter sleeps.  Init readies it before the two goroutines share it.
type Bell struct {
	asleep atomic.Bool
	wake   chan struct{} // one token: something the waiter waits for has happened
}

// Init readies the bell; a bell that is ready stays so.
func (b *Bell) Init() {
	if b.wake == nil {
		b.wake = make(chan struct{}, 1)
	}
}

// Ring wakes the waiter if it sleeps.  A waiter that goes to sleep after
// the publish sees it when it checks again (Wait).
func (b *Bell) Ring() {
	if b.asleep.Load() {
		b.signal()
	}
}

// signal wakes the waiter, or leaves it a token that ends its next sleep
// at once.  It stays out of line, so that a Ring is a load.
//
//go:noinline
func (b *Bell) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// Wait calls ready until it reports true or an error, and returns the
// error.  It yields waitSpins times before it sleeps until a Ring or the
// cancellation of ctx (nil: none), checking ready once more after it has
// announced its sleep, so no publish is missed.
func (b *Bell) Wait(ctx context.Context, ready func() (bool, error)) error {
	for spins := 0; ; spins++ {
		if ok, err := ready(); ok || err != nil {
			return err
		}
		if spins < waitSpins {
			runtime.Gosched()
			continue
		}
		b.asleep.Store(true)
		if ok, err := ready(); ok || err != nil {
			b.asleep.Store(false)
			return err
		}
		var cancelled <-chan struct{}
		if ctx != nil {
			cancelled = ctx.Done()
		}
		select {
		case <-b.wake:
		case <-cancelled:
		}
		b.asleep.Store(false)
	}
}
