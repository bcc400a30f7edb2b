package main

import (
	"strings"
	"testing"

	"warp"
)

// TestProgressTickerSingleLine pins the -progress terminal contract:
// every repaint starts with \r (rewriting one line, never scrolling),
// the only newline is the terminal update's, and a shrinking message is
// blank-padded so no stale tail survives.
func TestProgressTickerSingleLine(t *testing.T) {
	var buf strings.Builder
	tick := newProgressTicker(&buf)
	tick.last = tick.last.Add(-2 * tickerInterval) // defeat throttling for the test
	tick.update(warp.ProgressUpdate{Cycles: 4096, TotalCycles: 819200})
	tick.last = tick.last.Add(-2 * tickerInterval)
	tick.update(warp.ProgressUpdate{Cycles: 819200, TotalCycles: 819200, Done: true})
	out := buf.String()

	if got := strings.Count(out, "\n"); got != 1 {
		t.Errorf("ticker wrote %d newlines, want exactly 1 (the terminal one): %q", got, out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("ticker output does not end in a newline: %q", out)
	}
	frames := strings.Split(strings.TrimSuffix(out, "\n"), "\r")
	// Split yields a leading empty element because the output starts
	// with \r; every real frame follows one.
	if len(frames) < 3 || frames[0] != "" {
		t.Fatalf("want >= 2 \\r-led frames, got %q", out)
	}
	for _, f := range frames[1:] {
		if !strings.HasPrefix(f, "progress: ") {
			t.Errorf("frame %q does not start with the progress prefix", f)
		}
		if strings.Contains(f, "\n") {
			t.Errorf("frame %q contains a newline", f)
		}
	}
	last := frames[len(frames)-1]
	if !strings.Contains(last, "done, 819200 cycles") {
		t.Errorf("terminal frame %q does not report completion", last)
	}
	// The terminal frame is shorter than the first; the pad must cover
	// the difference so the longer first frame leaves no tail.
	if len(last) < len(frames[1]) {
		t.Errorf("terminal frame not padded over the widest frame: %d < %d", len(last), len(frames[1]))
	}
}

// TestProgressTickerNoInterleaveWithStats pins that a ticker followed
// by -stats-style stdout printing cannot interleave: once the ticker
// stops (terminal update or Stop), its stream ends with a newline, so
// a subsequent report starts at column zero on its own line.
func TestProgressTickerNoInterleaveWithStats(t *testing.T) {
	var stderr strings.Builder
	tick := newProgressTicker(&stderr)
	tick.last = tick.last.Add(-2 * tickerInterval)
	tick.update(warp.ProgressUpdate{Cycles: 100, TotalCycles: 200})
	tick.update(warp.ProgressUpdate{Cycles: 200, TotalCycles: 200, Done: true})
	tick.Stop() // idempotent after the terminal update

	if !strings.HasSuffix(stderr.String(), "\n") {
		t.Fatalf("ticker stream did not finish its line: %q", stderr.String())
	}
	// Updates after the terminal one (a straggler hook firing) must not
	// draw over the finished line.
	tick.update(warp.ProgressUpdate{Cycles: 300, TotalCycles: 200})
	if !strings.HasSuffix(stderr.String(), "\n") {
		t.Errorf("straggler update drew after the terminal newline: %q", stderr.String())
	}

	// The stats report goes to a different stream entirely; combined in
	// terminal order, every stats line stays whole.
	var stdout strings.Builder
	stdout.WriteString("cell  busy  stall\n   0  0.92   0.08\n")
	stdout.WriteString(decisionLine(&warp.Decision{
		Backend: "fast", Reason: "auto-verified",
		PredictedCycles: 719, ActualWallNS: 1.2e5, Batch: 4,
	}))
	combined := stderr.String() + stdout.String()
	for i, line := range strings.Split(strings.TrimSuffix(combined, "\n"), "\n") {
		if i == 0 {
			continue // the ticker's own \r frames
		}
		if strings.Contains(line, "\r") {
			t.Errorf("stats line %d interleaved with ticker frames: %q", i, line)
		}
	}
	if !strings.Contains(stdout.String(), "decision: backend fast (auto-verified); 719 cycles; actual 120µs, batch 4\n") {
		t.Errorf("decision line malformed: %q", stdout.String())
	}
}

// TestFormatProgress covers the three rendering shapes: fabric tiles,
// bounded single-array position, and unbounded position.
func TestFormatProgress(t *testing.T) {
	cases := []struct {
		u    warp.ProgressUpdate
		want string
	}{
		{warp.ProgressUpdate{Cycles: 500, TilesDone: 3, Tiles: 10}, "3/10 tiles, 500 aggregate cycles"},
		{warp.ProgressUpdate{Cycles: 50, TotalCycles: 200}, "cycle 50/200 (25%)"},
		{warp.ProgressUpdate{Cycles: 50}, "cycle 50"},
		{warp.ProgressUpdate{Cycles: 200, TotalCycles: 200, Done: true}, "done, 200 cycles"},
	}
	for _, tc := range cases {
		if got := formatProgress(tc.u); got != tc.want {
			t.Errorf("formatProgress(%+v) = %q, want %q", tc.u, got, tc.want)
		}
	}
}
