package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// ChromeTracer is a Recorder that streams events in the Chrome
// trace-event JSON format (the "JSON Array Format" wrapped in a
// traceEvents object), loadable in Perfetto or chrome://tracing.
//
// Layout: one process (pid 1, "warp array") with one group of threads
// per cell — the cell's activity/stall track plus one track per
// functional unit and memory port — one counter track per queue for
// occupancy, and a second process (pid 2, "compiler") carrying the
// compile-phase slices on one track.  One machine cycle maps to one
// microsecond of trace time.
//
// Consecutive same-kind stall cycles are coalesced into one slice so a
// long skew lead-in or drain is a single span, not thousands of events.
// Call Close to finalize the JSON; the underlying writer is not closed.
type ChromeTracer struct {
	w   *bufio.Writer
	n   int
	err error

	cells     int
	cellBegin []int64
	stalls    []stallSpan
}

type stallSpan struct {
	kind  Stall
	start int64
	end   int64
	open  bool
}

const (
	tracePIDArray    = 1
	tracePIDCompiler = 2
	// Per-cell thread IDs: cell c owns tids cellTIDBase+c*cellTIDStride
	// ... +cellTIDStride-1.
	cellTIDBase   = 10
	cellTIDStride = 8
	tidOffActive  = 0 // cell activity span + stall slices
	tidOffAdd     = 1
	tidOffMul     = 2
	tidOffMov     = 3
	tidOffMem0    = 4 // memory ports follow: tidOffMem0+port
)

// NewChromeTracer returns a tracer streaming to w.
func NewChromeTracer(w io.Writer) *ChromeTracer {
	t := &ChromeTracer{w: bufio.NewWriterSize(w, 1<<16)}
	_, t.err = t.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	t.emit(`{"name":"process_name","ph":"M","ts":0,"pid":%d,"tid":0,"args":{"name":"warp array"}}`, tracePIDArray)
	t.emit(`{"name":"process_name","ph":"M","ts":0,"pid":%d,"tid":0,"args":{"name":"compiler"}}`, tracePIDCompiler)
	t.emit(`{"name":"thread_name","ph":"M","ts":0,"pid":%d,"tid":1,"args":{"name":"phases"}}`, tracePIDCompiler)
	return t
}

// emit writes one event object, handling commas and sticky errors.
func (t *ChromeTracer) emit(format string, args ...any) {
	if t.err != nil {
		return
	}
	if t.n > 0 {
		t.w.WriteByte(',')
	}
	t.w.WriteByte('\n')
	if _, err := fmt.Fprintf(t.w, format, args...); err != nil {
		t.err = err
		return
	}
	t.n++
}

func cellTID(cell, off int) int { return cellTIDBase + cell*cellTIDStride + off }

func (t *ChromeTracer) RunStart(cells int, skew, lead int64) {
	t.cells = cells
	t.cellBegin = make([]int64, cells)
	t.stalls = make([]stallSpan, cells)
	for c := 0; c < cells; c++ {
		for _, nt := range []struct {
			off  int
			name string
		}{
			{tidOffActive, fmt.Sprintf("cell %d", c)},
			{tidOffAdd, fmt.Sprintf("cell %d add", c)},
			{tidOffMul, fmt.Sprintf("cell %d mul", c)},
			{tidOffMov, fmt.Sprintf("cell %d mov", c)},
			{tidOffMem0, fmt.Sprintf("cell %d mem0", c)},
			{tidOffMem0 + 1, fmt.Sprintf("cell %d mem1", c)},
		} {
			t.emit(`{"name":"thread_name","ph":"M","ts":0,"pid":%d,"tid":%d,"args":{"name":%s}}`,
				tracePIDArray, cellTID(c, nt.off), strconv.Quote(nt.name))
			t.emit(`{"name":"thread_sort_index","ph":"M","ts":0,"pid":%d,"tid":%d,"args":{"sort_index":%d}}`,
				tracePIDArray, cellTID(c, nt.off), cellTID(c, nt.off))
		}
	}
	t.emit(`{"name":"run","ph":"i","s":"g","ts":0,"pid":%d,"tid":%d,"args":{"cells":%d,"skew":%d,"lead":%d}}`,
		tracePIDArray, cellTID(0, tidOffActive), cells, skew, lead)
}

func (t *ChromeTracer) RunEnd(cycle int64) {
	for c := range t.stalls {
		t.flushStall(c)
	}
}

func (t *ChromeTracer) CellStart(cycle int64, cell int) {
	t.flushStall(cell)
	t.cellBegin[cell] = cycle
}

func (t *ChromeTracer) CellFinish(cycle int64, cell int) {
	t.flushStall(cell)
	dur := cycle - t.cellBegin[cell]
	if dur < 1 {
		dur = 1
	}
	t.emit(`{"name":"active","cat":"cell","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d}`,
		t.cellBegin[cell], dur, tracePIDArray, cellTID(cell, tidOffActive))
}

func (t *ChromeTracer) Issue(cycle int64, cell int, unit Unit) {
	off := tidOffAdd
	switch unit {
	case UnitMul:
		off = tidOffMul
	case UnitMov:
		off = tidOffMov
	}
	t.emit(`{"name":"%s","cat":"fpu","ph":"X","ts":%d,"dur":1,"pid":%d,"tid":%d}`,
		unit, cycle, tracePIDArray, cellTID(cell, off))
}

func (t *ChromeTracer) MemRef(cycle int64, cell int, port int, addr int64, store bool) {
	name := "load"
	if store {
		name = "store"
	}
	if port < 0 || port > 1 {
		port = 1
	}
	t.emit(`{"name":"%s","cat":"mem","ph":"X","ts":%d,"dur":1,"pid":%d,"tid":%d,"args":{"addr":%d}}`,
		name, cycle, tracePIDArray, cellTID(cell, tidOffMem0+port), addr)
}

func (t *ChromeTracer) QueuePush(cycle int64, cell int, q Queue, occ int) {
	t.counter(cycle, cell, q, occ)
}

func (t *ChromeTracer) QueuePop(cycle int64, cell int, q Queue, occ int) {
	t.counter(cycle, cell, q, occ)
}

func (t *ChromeTracer) counter(cycle int64, cell int, q Queue, occ int) {
	t.emit(`{"name":"cell%d.%s","cat":"queue","ph":"C","ts":%d,"pid":%d,"tid":0,"args":{"words":%d}}`,
		cell, q, cycle, tracePIDArray, occ)
}

func (t *ChromeTracer) Stall(cycle int64, cell int, s Stall) {
	if cell < 0 || cell >= len(t.stalls) {
		return
	}
	sp := &t.stalls[cell]
	if sp.open && sp.kind == s && cycle == sp.end+1 {
		sp.end = cycle
		return
	}
	t.flushStall(cell)
	t.stalls[cell] = stallSpan{kind: s, start: cycle, end: cycle, open: true}
}

func (t *ChromeTracer) flushStall(cell int) {
	if cell < 0 || cell >= len(t.stalls) {
		return
	}
	sp := &t.stalls[cell]
	if !sp.open {
		return
	}
	sp.open = false
	t.emit(`{"name":"%s","cat":"stall","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d}`,
		sp.kind, sp.start, sp.end-sp.start+1, tracePIDArray, cellTID(cell, tidOffActive))
}

// Phase draws one compile-phase record on the compiler track at its
// true timeline position.
func (t *ChromeTracer) Phase(p PhaseStat) {
	dur := p.Seconds * 1e6
	if dur < 1 {
		dur = 1
	}
	t.emit(`{"name":%s,"cat":"compile","ph":"X","ts":%.0f,"dur":%.0f,"pid":%d,"tid":1,"args":{"size":%d,"note":%s}}`,
		strconv.Quote(p.Name), p.Start*1e6, dur, tracePIDCompiler, p.Size, strconv.Quote(p.Note))
}

// Close finalizes the JSON document and flushes the buffered writer.
// It does not close the underlying io.Writer.
func (t *ChromeTracer) Close() error {
	for c := range t.stalls {
		t.flushStall(c)
	}
	if t.err == nil {
		_, t.err = t.w.WriteString("\n]}\n")
	}
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}
