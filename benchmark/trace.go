package main

import (
	"time"

	"warp/internal/obs"
)

// tracer is the benchmark's span log: spans are recorded from the
// benchmark's own files, around the calls into each layer's public
// functions, kept in memory, and written out when the benchmark ends.
// Every span names the span that caused it; the spans of one operation
// hang under that operation's root span.  A layer's self time is its
// span's duration minus the part its child spans cover.
//
// The zero tracer is off: span returns a nil handle and nothing is
// recorded, which is how the untraced pass runs.
type tracer struct {
	t *obs.Trace
}

func newTracer() *tracer { return &tracer{t: obs.NewTrace()} }

// span opens a span under parent (nil = an operation's root span).
func (tr *tracer) span(name string, parent *obs.Span) *obs.Span {
	if tr == nil {
		return nil
	}
	return tr.t.StartSpan(name, parent)
}

// timed runs f inside a span and returns how long it took.  The clock
// is read here and not taken from the span, so the traced pass measures
// a call the same way with the log on or off.
func (tr *tracer) timed(name string, parent *obs.Span, f func(sp *obs.Span)) time.Duration {
	sp := tr.span(name, parent)
	start := time.Now()
	f(sp)
	d := time.Since(start)
	sp.End()
	return d
}

// spans snapshots the log.
func (tr *tracer) spans() []obs.SpanRecord {
	if tr == nil {
		return nil
	}
	return tr.t.Spans()
}
