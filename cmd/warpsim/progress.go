package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"warp"
)

// progressTicker renders run progress as one carriage-return-updated
// line: every update rewrites the same line in place and Stop (or the
// terminal update) finishes it with a newline, so whatever the command
// prints next — the summary, -stats tables, profiles — starts on a
// fresh line and never interleaves with a half-drawn ticker.
type progressTicker struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
	last  time.Time // last repaint, for throttling
	width int       // widest line drawn, for \r overpaint
	done  bool
}

// tickerInterval throttles repaints: the hook fires every poll stride
// (thousands of times a second on a fast host), the terminal needs ~10
// frames a second.
const tickerInterval = 100 * time.Millisecond

func newProgressTicker(w io.Writer) *progressTicker {
	return &progressTicker{w: w, start: time.Now()}
}

// update is the warp.ProgressFunc: repaint the line, throttled, and
// finalize it on the terminal update.
func (t *progressTicker) update(u warp.ProgressUpdate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	now := time.Now()
	if !u.Done && now.Sub(t.last) < tickerInterval {
		return
	}
	t.last = now
	t.paint(formatProgress(u), now)
	if u.Done {
		fmt.Fprintln(t.w)
		t.done = true
	}
}

// Stop finishes the ticker line if the run never delivered a terminal
// update (an error path).  Idempotent; safe on a nil ticker (flag off)
// and on a ticker that never drew.
func (t *progressTicker) Stop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	if t.width > 0 {
		fmt.Fprintln(t.w)
	}
}

// paint rewrites the single line in place, blank-padding to the widest
// line drawn so a shrinking message leaves no stale tail characters.
func (t *progressTicker) paint(msg string, now time.Time) {
	line := fmt.Sprintf("progress: %s (%s)", msg, now.Sub(t.start).Round(100*time.Millisecond))
	pad := 0
	if len(line) < t.width {
		pad = t.width - len(line)
	} else {
		t.width = len(line)
	}
	fmt.Fprintf(t.w, "\r%s%*s", line, pad, "")
}

// formatProgress renders one update: tile counts for fabric jobs,
// cycle position (with percent when the modeled total is known) for
// single-array runs.
func formatProgress(u warp.ProgressUpdate) string {
	if u.Tiles > 0 {
		return fmt.Sprintf("%d/%d tiles, %d aggregate cycles", u.TilesDone, u.Tiles, u.Cycles)
	}
	if u.Done {
		return fmt.Sprintf("done, %d cycles", u.Cycles)
	}
	if u.TotalCycles > 0 {
		return fmt.Sprintf("cycle %d/%d (%.0f%%)", u.Cycles, u.TotalCycles,
			100*float64(u.Cycles)/float64(u.TotalCycles))
	}
	return fmt.Sprintf("cycle %d", u.Cycles)
}

// decisionLine renders the backend decision audit for the -stats
// report: what ran, why, its exact cycle count and the measured wall.
func decisionLine(d *warp.Decision) string {
	if d == nil {
		return ""
	}
	line := fmt.Sprintf("decision: backend %s (%s); %d cycles; actual %s", d.Backend, d.Reason,
		d.PredictedCycles, time.Duration(d.ActualWallNS).Round(time.Microsecond))
	if d.Batch > 1 {
		line += fmt.Sprintf(", batch %d", d.Batch)
	}
	return line + "\n"
}
