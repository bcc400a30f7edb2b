package sim_test

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warp/internal/sim"
)

// forkRun is one sim.Fork under test: what its workers do, and what they
// saw.  Worker panicOn panics; while one does, every other worker waits
// for the stop hook.  Otherwise each worker waits for the worker to its
// right to end, so they end right to left, and returns the error of its
// key (-1: none).
type forkRun struct {
	panicOn int
	keys    []int

	on       []int64         // the goroutine each worker ran on
	ended    []chan struct{} // closed as each worker returns
	returned atomic.Int32    // workers returned, panicking ones included
	stopped  chan struct{}   // closed by the first stop
	stopOnce sync.Once
	stops    atomic.Int32
	late     atomic.Int32 // workers the stop hook never reached
}

func (r *forkRun) body(w int) error {
	r.on[w] = goid()
	defer close(r.ended[w])
	defer r.returned.Add(1)
	switch {
	case w == r.panicOn:
		panic(fmt.Sprintf("worker %d", w))
	case r.panicOn >= 0:
		select {
		case <-r.stopped:
			return nil
		case <-time.After(5 * time.Second):
			r.late.Add(1)
			return errors.New("never stopped")
		}
	}
	if w+1 < len(r.ended) {
		<-r.ended[w+1]
	}
	if r.keys[w] < 0 {
		return nil
	}
	return fmt.Errorf("key %d", r.keys[w])
}

func (r *forkRun) stop() {
	r.stops.Add(1)
	r.stopOnce.Do(func() { close(r.stopped) })
}

func (r *forkRun) before(a, b int) bool { return r.keys[a] < r.keys[b] }

// goid returns the calling goroutine's id.
func goid() int64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)])) // goroutine 7 [running]:
	id, _ := strconv.ParseInt(f[1], 10, 64)
	return id
}

// TestFork pins sim.Fork's contract, which both streamed executors run
// under: one worker runs on the caller without allocating; otherwise
// worker 0 runs on the caller and the others on helpers; the error is the
// one the key ranks first whatever order the workers end in; a panic on
// any worker calls the stop hook, waits for every worker and is raised on
// the caller; and no goroutine outlives the call.
func TestFork(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name    string
		panicOn int
		keys    []int
		want    string // the error's text or the panic's value; "" for neither
	}{
		{"one worker", -1, []int{-1}, ""},
		{"one worker's error", -1, []int{5}, "key 5"},
		{"no error", -1, []int{-1, -1, -1}, ""},
		{"the least key, ending right to left", -1, []int{2, 0, -1, 1}, "key 0"},
		{"a panic on a helper", 2, []int{-1, -1, -1, -1}, "worker 2"},
		{"a panic on the caller", 0, []int{-1, -1, -1, -1}, "worker 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := len(tc.keys)
			r := &forkRun{panicOn: tc.panicOn, keys: tc.keys, on: make([]int64, g), ended: make([]chan struct{}, g), stopped: make(chan struct{})}
			for w := range r.ended {
				r.ended[w] = make(chan struct{})
			}
			var got string
			var returned int32
			func() {
				defer func() {
					if p := recover(); p != nil {
						got, returned = fmt.Sprint(p), r.returned.Load()
					}
				}()
				if err := sim.Fork(r, g, (*forkRun).body, (*forkRun).stop, (*forkRun).before); err != nil {
					got = err.Error()
				}
				returned = r.returned.Load()
			}()
			if got != tc.want {
				t.Errorf("Fork ended with %q, want %q", got, tc.want)
			}
			if returned != int32(g) {
				t.Errorf("%d of %d workers had returned when Fork ended", returned, g)
			}
			if stops, late := r.stops.Load(), r.late.Load(); (tc.panicOn >= 0) != (stops > 0) || late > 0 {
				t.Errorf("the stop hook ran %d times, and %d workers waited for it in vain", stops, late)
			}
			caller := goid()
			for w, id := range r.on {
				if (w == 0) != (id == caller) {
					t.Errorf("worker %d ran on goroutine %d, the caller is %d", w, id, caller)
				}
			}
		})
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the forks, %d before", n, base)
	}
	idle, nop := &forkRun{}, func(*forkRun, int) error { return nil }
	if n := testing.AllocsPerRun(100, func() { sim.Fork(idle, 1, nop, (*forkRun).stop, (*forkRun).before) }); n != 0 {
		t.Errorf("one worker allocates %v times, want none", n)
	}
}
