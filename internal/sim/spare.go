package sim

import (
	"context"
	"runtime"
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
