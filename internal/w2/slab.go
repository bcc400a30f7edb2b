package w2

// slab hands out values of one type from one backing array.  A slab
// that runs out starts another array, so a handed-out value never moves.
type slab[T any] struct{ buf []T }

func (s *slab[T]) reserve(n int) { s.buf = make([]T, 0, max(n, 0)) }

func (s *slab[T]) new() *T { return &s.take(1)[0] }

// take returns n consecutive values as a window capped at its length,
// so appending to it cannot reach the next window.  It is never nil.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return []T{}
	}
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, max(2*cap(s.buf), n, 8))
	}
	i := len(s.buf)
	s.buf = s.buf[:i+n]
	return s.buf[i : i+n : i+n]
}

// lists builds nested lists on one stack and moves each finished list
// into a window of one slab.
type lists[T any] struct {
	stack []T
	store slab[T]
}

func (l *lists[T]) mark() int { return len(l.stack) }

func (l *lists[T]) push(x T) { l.stack = append(l.stack, x) }

// finish pops the list pushed since mark; an empty list is nil.
func (l *lists[T]) finish(mark int) []T {
	n := len(l.stack) - mark
	if n == 0 {
		return nil
	}
	list := l.store.take(n)
	copy(list, l.stack[mark:])
	clear(l.stack[mark:])
	l.stack = l.stack[:mark]
	return list
}
