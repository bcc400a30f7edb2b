package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// waitCtx is a context whose Done reports when it is first consulted.
// store.get evaluates ctx.Done() only on the waiter path, after it has
// found another caller's flight, so a closed called channel proves the
// holder is committed to that flight's result — the event the
// singleflight tests wait on instead of sleeping.
type waitCtx struct {
	context.Context
	once   *sync.Once
	called chan struct{}
}

func newWaitCtx() waitCtx {
	return waitCtx{Context: context.Background(), once: new(sync.Once), called: make(chan struct{})}
}

func (c waitCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.called) })
	return c.Context.Done()
}

// loadInt returns a load that yields v.
func loadInt(v int) func() (int, error) {
	return func() (int, error) { return v, nil }
}

// mustGet fails the test unless key resolves to want with the given hit
// status.
func mustGet(t *testing.T, s *store[int], key string, want int, wantHit bool) {
	t.Helper()
	v, hit, err := s.get(context.Background(), key, loadInt(want))
	if err != nil || v != want || hit != wantHit {
		t.Fatalf("get(%q) = %d, hit=%v, err=%v; want %d, hit=%v", key, v, hit, err, want, wantHit)
	}
}

type getResult struct {
	v   int
	hit bool
	err error
}

// flightWith starts an owner whose load blocks until release is closed
// and then returns finish(), plus the given number of waiters, every
// one provably committed to the owner's flight by the time flightWith
// returns.
func flightWith(t *testing.T, s *store[int], key string, waiters int, finish func() (int, error)) (release chan struct{}, owner chan getResult, waited chan getResult) {
	t.Helper()
	release = make(chan struct{})
	entered := make(chan struct{})
	owner = make(chan getResult, 1)
	waited = make(chan getResult, waiters)
	go func() {
		v, hit, err := s.get(context.Background(), key, func() (int, error) {
			close(entered)
			<-release
			return finish()
		})
		owner <- getResult{v, hit, err}
	}()
	<-entered
	for i := 0; i < waiters; i++ {
		ctx := newWaitCtx()
		go func() {
			v, hit, err := s.get(ctx, key, func() (int, error) {
				t.Error("a waiter ran its own load")
				return 0, nil
			})
			waited <- getResult{v, hit, err}
		}()
		<-ctx.called
	}
	return release, owner, waited
}

// TestStore pins the one LRU + singleflight core every service cache is
// built on.
func TestStore(t *testing.T) {
	cases := []struct {
		name string
		max  int
		run  func(t *testing.T, s *store[int], n *counters, evicted *[]int)
	}{
		{"LRU order and eviction count", 2, func(t *testing.T, s *store[int], n *counters, evicted *[]int) {
			mustGet(t, s, "a", 1, false)
			mustGet(t, s, "b", 2, false)
			mustGet(t, s, "c", 3, false)
			if _, ok := s.lookup("a"); ok {
				t.Error("oldest entry survived eviction")
			}
			for _, k := range []string{"b", "c"} {
				if _, ok := s.lookup(k); !ok {
					t.Errorf("entry %q was evicted", k)
				}
			}
			if got := n.evictions.Load(); got != 1 || s.len() != 2 {
				t.Errorf("evictions=%d len=%d, want 1 and 2", got, s.len())
			}
			if got := n.misses.Load(); got != 3 {
				t.Errorf("misses=%d, want 3", got)
			}
		}},
		{"recency refresh on lookup and on hit", 2, func(t *testing.T, s *store[int], n *counters, evicted *[]int) {
			mustGet(t, s, "a", 1, false)
			mustGet(t, s, "b", 2, false)
			if _, ok := s.lookup("a"); !ok { // a is now newer than b
				t.Fatal("a missing")
			}
			mustGet(t, s, "c", 3, false) // evicts b
			mustGet(t, s, "a", 1, true)  // a is now newer than c
			mustGet(t, s, "d", 4, false) // evicts c
			if !reflect.DeepEqual(*evicted, []int{2, 3}) {
				t.Errorf("evicted %v, want [2 3]", *evicted)
			}
			if got := n.hits.Load(); got != 2 {
				t.Errorf("hits=%d, want 2 (one lookup, one get)", got)
			}
			if _, ok := s.lookup("zzz"); ok || n.hits.Load() != 2 {
				t.Error("an absent key was found or counted")
			}
		}},
		{"singleflight: one load, waiters are hits", 4, func(t *testing.T, s *store[int], n *counters, evicted *[]int) {
			const waiters = 7
			var loads atomic.Int32
			release, owner, waited := flightWith(t, s, "k", waiters, func() (int, error) {
				loads.Add(1)
				return 42, nil
			})
			close(release)
			if r := <-owner; r.err != nil || r.v != 42 || r.hit {
				t.Errorf("owner got %+v, want 42 as a miss", r)
			}
			for i := 0; i < waiters; i++ {
				if r := <-waited; r.err != nil || r.v != 42 || !r.hit {
					t.Errorf("waiter got %+v, want 42 as a hit", r)
				}
			}
			if loads.Load() != 1 || n.misses.Load() != 1 || n.hits.Load() != waiters {
				t.Errorf("loads=%d misses=%d hits=%d, want 1, 1, %d",
					loads.Load(), n.misses.Load(), n.hits.Load(), waiters)
			}
		}},
		{"waiter abandons on ctx, the load still lands", 4, func(t *testing.T, s *store[int], n *counters, evicted *[]int) {
			release, owner, _ := flightWith(t, s, "k", 0, loadInt(7))
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, hit, err := s.get(ctx, "k", loadInt(0)); !errors.Is(err, context.Canceled) || hit {
				t.Errorf("abandoned waiter: hit=%v err=%v, want context.Canceled", hit, err)
			}
			close(release)
			if r := <-owner; r.err != nil || r.v != 7 {
				t.Errorf("owner got %+v", r)
			}
			if v, ok := s.lookup("k"); !ok || v != 7 {
				t.Errorf("abandoned load did not land: %d, %v", v, ok)
			}
			if n.misses.Load() != 1 || n.hits.Load() != 1 {
				t.Errorf("misses=%d hits=%d, want 1 and 1 (the abandoned wait counts as neither)",
					n.misses.Load(), n.hits.Load())
			}
		}},
		{"error not cached", 4, func(t *testing.T, s *store[int], n *counters, evicted *[]int) {
			boom := errors.New("boom")
			for i := 0; i < 2; i++ {
				_, hit, err := s.get(context.Background(), "k", func() (int, error) { return 0, boom })
				if !errors.Is(err, boom) || hit {
					t.Fatalf("attempt %d: hit=%v err=%v, want boom", i, hit, err)
				}
			}
			if s.len() != 0 || n.misses.Load() != 2 {
				t.Errorf("len=%d misses=%d, want 0 and 2", s.len(), n.misses.Load())
			}
			mustGet(t, s, "k", 5, false)
		}},
		{"loader panic poisons nothing", 4, func(t *testing.T, s *store[int], n *counters, evicted *[]int) {
			const waiters = 3
			release, owner, waited := flightWith(t, s, "k", waiters, func() (int, error) {
				panic("kaboom")
			})
			close(release)
			if r := <-owner; !errors.Is(r.err, errPanic) || !strings.Contains(r.err.Error(), "kaboom") {
				t.Errorf("owner got %+v, want errPanic naming the panic value", r)
			}
			for i := 0; i < waiters; i++ {
				if r := <-waited; !errors.Is(r.err, errPanic) || r.hit {
					t.Errorf("waiter got %+v, want errPanic", r)
				}
			}
			s.mu.Lock()
			open := len(s.flights)
			s.mu.Unlock()
			if open != 0 || s.len() != 0 {
				t.Errorf("%d flights left open, %d values resident; want none", open, s.len())
			}
			mustGet(t, s, "k", 9, false) // the next request retries
			mustGet(t, s, "k", 9, true)
		}},
		{"eviction callback", 1, func(t *testing.T, s *store[int], n *counters, evicted *[]int) {
			for i := 0; i < 4; i++ {
				mustGet(t, s, fmt.Sprint(i), i, false)
			}
			if !reflect.DeepEqual(*evicted, []int{0, 1, 2}) {
				t.Errorf("callback saw %v, want [0 1 2]", *evicted)
			}
			if n.evictions.Load() != 3 {
				t.Errorf("evictions=%d, want 3", n.evictions.Load())
			}
			seen := 0
			s.each(func(v int) { seen += v })
			if seen != 3 || s.len() != 1 {
				t.Errorf("resident sum=%d len=%d, want only the value 3", seen, s.len())
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var n counters
			var evicted []int
			s := newStore(c.max, &n, func(v int) { evicted = append(evicted, v) })
			c.run(t, s, &n, &evicted)
		})
	}
}
