package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// This file is the request-scoped half of the observability layer: a
// lightweight span tree recording how one service request spent its
// wall-clock time (queue wait, cache lookup, compiler phases, the
// simulated run), complementing the cycle-scoped Recorder/Profile
// machinery.  The design rules mirror the Recorder's: a disabled trace
// (nil *Trace) must cost nothing — every method is nil-receiver safe
// and allocation-free on the disabled path — and the clock is injected
// so tests are deterministic.

// SpanAttr is one key/value annotation on a span.
type SpanAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one completed (or still-open) span.  Times are
// monotonic-clock offsets from the trace start in nanoseconds; EndNS is
// -1 while the span is open.
type SpanRecord struct {
	ID      int        `json:"id"`
	Parent  int        `json:"parent"` // -1 for a root span
	Name    string     `json:"name"`
	StartNS int64      `json:"start_ns"`
	EndNS   int64      `json:"end_ns"`
	Attrs   []SpanAttr `json:"attrs,omitempty"`
	// Summary carries the simulated run's obs.Profile summary when the
	// span covers a simulation (the "run" span of a service request).
	Summary *Summary `json:"summary,omitempty"`
}

// DurNS returns the span's duration, or 0 while it is still open.
func (r *SpanRecord) DurNS() int64 {
	if r.EndNS < 0 {
		return 0
	}
	return r.EndNS - r.StartNS
}

// Trace is an append-only span tree for one request.  A nil *Trace is
// the disabled trace: StartSpan returns a nil *Span and every Span
// method is a no-op, so callers thread one pointer and never branch.
// All methods are safe for concurrent use.
type Trace struct {
	mu    sync.Mutex
	now   func() time.Duration
	spans []SpanRecord
}

// NewTrace builds a trace whose clock is the real monotonic clock,
// zeroed at the call.
func NewTrace() *Trace {
	t0 := time.Now()
	return NewTraceClock(func() time.Duration { return time.Since(t0) })
}

// NewTraceClock builds a trace reading the injected monotonic clock —
// tests pass a hand-advanced clock so span durations are exact.
func NewTraceClock(now func() time.Duration) *Trace {
	return &Trace{now: now}
}

// Span is a handle on one open span.  The zero of the API is nil: a nil
// *Span (from a nil *Trace) ignores End, Annotate and AttachSummary.
type Span struct {
	t  *Trace
	id int
}

// StartSpan opens a span under parent (nil parent = a root span) and
// returns its handle.  On a nil Trace it returns nil.
func (t *Trace) StartSpan(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := len(t.spans)
	pid := -1
	if parent != nil && parent.t == t {
		pid = parent.id
	}
	t.spans = append(t.spans, SpanRecord{
		ID: id, Parent: pid, Name: name,
		StartNS: int64(t.now()), EndNS: -1,
	})
	t.mu.Unlock()
	return &Span{t: t, id: id}
}

// End closes the span at the trace clock's current reading.  Ending a
// span twice keeps the first end time, so cleanup paths may End
// unconditionally.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.t.spans[s.id].EndNS < 0 {
		s.t.spans[s.id].EndNS = int64(s.t.now())
	}
	s.t.mu.Unlock()
}

// Annotate attaches a key/value pair to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.id].Attrs = append(s.t.spans[s.id].Attrs, SpanAttr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// AttachSummary attaches a run summary to the span (the simulator's
// aggregate profile, condensed).
func (s *Span) AttachSummary(sum Summary) {
	if s == nil {
		return
	}
	// Copy via an explicit allocation after the nil check so the
	// disabled path stays allocation-free (&sum would heap-escape the
	// parameter unconditionally).
	c := new(Summary)
	*c = sum
	s.t.mu.Lock()
	s.t.spans[s.id].Summary = c
	s.t.mu.Unlock()
}

// Now reads the trace clock: the anchor a caller takes just before a
// compilation starts and later hands to AddPhases.  0 on a nil span.
func (s *Span) Now() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.t.now()
}

// AddPhases files a finished compilation's phase records as closed
// child spans of s.  anchor is the trace clock when the compilation
// began (see Now); each phase lands at anchor+Start for Seconds.
// Attributes: size, and note when non-empty.
func (s *Span) AddPhases(anchor time.Duration, phases []PhaseStat) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for _, p := range phases {
		attrs := []SpanAttr{{Key: "size", Value: strconv.Itoa(p.Size)}}
		if p.Note != "" {
			attrs = append(attrs, SpanAttr{Key: "note", Value: p.Note})
		}
		start := anchor + time.Duration(p.Start*float64(time.Second))
		s.t.spans = append(s.t.spans, SpanRecord{
			ID: len(s.t.spans), Parent: s.id, Name: p.Name,
			StartNS: int64(start), EndNS: int64(start + time.Duration(p.Seconds*float64(time.Second))),
			Attrs: attrs,
		})
	}
}

// Spans snapshots the trace as a copy, safe to serialize while other
// goroutines keep recording.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	return out
}

// WriteChromeSpans renders a span snapshot as a Chrome trace-event JSON
// document (one process, one track; nesting follows time containment),
// loadable in Perfetto next to the cycle-level traces.  One nanosecond
// of request time maps to one nanosecond (ts is microseconds with
// fractional digits).
func WriteChromeSpans(w io.Writer, spans []SpanRecord) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n"); err != nil {
		return err
	}
	fmt.Fprintf(bw, `{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"request"}}`)
	for i := range spans {
		sp := &spans[i]
		dur := sp.DurNS()
		if dur < 1 {
			dur = 1
		}
		fmt.Fprintf(bw, ",\n{\"name\":%s,\"cat\":\"span\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{",
			strconv.Quote(sp.Name), float64(sp.StartNS)/1e3, float64(dur)/1e3)
		fmt.Fprintf(bw, `"span_id":%d,"parent":%d`, sp.ID, sp.Parent)
		for _, a := range sp.Attrs {
			fmt.Fprintf(bw, ",%s:%s", strconv.Quote(a.Key), strconv.Quote(a.Value))
		}
		if sp.Summary != nil {
			fmt.Fprintf(bw, `,"cycles":%d,"cells":%d`, sp.Summary.Cycles, sp.Summary.Cells)
		}
		bw.WriteString("}}")
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
