package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// errPanic marks a store load or a pool job that panicked.  The panic
// is turned into this error for the flight's owner and every waiter (or
// the job's submitter), so a compiler or executor bug costs one 500
// instead of wedging the key or killing the daemon.
var errPanic = errors.New("internal error: panic")

// panicError is a recovered panic.  Its text names the value and may go
// to a client; the stack is the operator's (see finishRequest).
type panicError struct {
	value any
	stack []byte
}

// recovered wraps the value recover returned, on the panicking stack.
func recovered(r any) error { return &panicError{value: r, stack: debug.Stack()} }

func (e *panicError) Error() string { return fmt.Sprintf("%v: %v", errPanic, e.value) }
func (e *panicError) Unwrap() error { return errPanic }

// counters are a store's hit/miss/eviction totals.  They sit behind a
// pointer so the per-template program stores of a TemplateCache
// can count into one set that outlives any evicted template.
type counters struct {
	hits, misses, evictions atomic.Int64
}

// store is the one program store under the service's caches: an LRU of
// at most max values keyed by string, whose misses run the caller's
// load at most once per key no matter how many goroutines ask
// (singleflight).  Errors are never stored — the next get retries.
type store[V any] struct {
	max     int
	n       *counters
	onEvict func(V) // called with mu held, once per evicted value

	mu      sync.Mutex
	lru     *list.List // front = most recent; values are *storeEntry[V]
	byKey   map[string]*list.Element
	flights map[string]*flight[V]
}

type storeEntry[V any] struct {
	key string
	val V
}

// flight is one in-progress load shared by every concurrent get of the
// same key.
type flight[V any] struct {
	done chan struct{} // closed when the load finishes
	val  V
	err  error
}

// newStore builds a store holding at most max values (minimum 1) that
// counts into n.  onEvict may be nil.
func newStore[V any](max int, n *counters, onEvict func(V)) *store[V] {
	if max < 1 {
		max = 1
	}
	return &store[V]{
		max:     max,
		n:       n,
		onEvict: onEvict,
		lru:     list.New(),
		byKey:   map[string]*list.Element{},
		flights: map[string]*flight[V]{},
	}
}

// get returns the value for key, running load if it is neither resident
// nor already being loaded.  hit is true for a resident value and for a
// waiter that shared another caller's load; the caller that ran load
// gets hit=false and is the one counted as a miss.  ctx bounds only a
// waiter's wait: an abandoned load still completes and lands in the
// store for others.
func (s *store[V]) get(ctx context.Context, key string, load func() (V, error)) (v V, hit bool, err error) {
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		s.n.hits.Add(1)
		return el.Value.(*storeEntry[V]).val, true, nil
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		if f.err != nil {
			return v, false, f.err
		}
		s.n.hits.Add(1)
		return f.val, true, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()
	s.n.misses.Add(1)
	s.fly(key, f, load)
	return f.val, false, f.err
}

// fly runs load as the owner of key's flight.  Landing is deferred so
// that a load which panics (or exits its goroutine) still clears the
// flight and releases its waiters with an error; a panic's value and
// stack travel in it.
func (s *store[V]) fly(key string, f *flight[V], load func() (V, error)) {
	f.err = errPanic // stands unless load returns
	defer func() {
		if r := recover(); r != nil {
			f.err = recovered(r)
		}
		s.mu.Lock()
		delete(s.flights, key)
		if f.err == nil {
			s.insertLocked(key, f.val)
		}
		s.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = load()
}

// insertLocked files a freshly loaded value (its key cannot be resident:
// the flight that loaded it excluded every other load of the key) and
// evicts from the LRU tail.  Caller holds s.mu.
func (s *store[V]) insertLocked(key string, v V) {
	s.byKey[key] = s.lru.PushFront(&storeEntry[V]{key: key, val: v})
	for s.lru.Len() > s.max {
		old := s.lru.Remove(s.lru.Back()).(*storeEntry[V])
		delete(s.byKey, old.key)
		s.n.evictions.Add(1)
		if s.onEvict != nil {
			s.onEvict(old.val)
		}
	}
}

// lookup returns the resident value for key and refreshes its recency,
// counting a hit; an absent key counts nothing.
func (s *store[V]) lookup(key string) (v V, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		return v, false
	}
	s.lru.MoveToFront(el)
	s.n.hits.Add(1)
	return el.Value.(*storeEntry[V]).val, true
}

// len returns the number of resident values.
func (s *store[V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// each calls fn on every resident value, most recent first, holding
// s.mu.
func (s *store[V]) each(fn func(V)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.lru.Front(); el != nil; el = el.Next() {
		fn(el.Value.(*storeEntry[V]).val)
	}
}
