package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestLatencyBoundsLogSpaced(t *testing.T) {
	b := LatencyBounds()
	if len(b) < 10 {
		t.Fatalf("want a usable bucket count, got %d", len(b))
	}
	if b[0] != 1e-4 {
		t.Fatalf("first bound = %g, want 1e-4", b[0])
	}
	for i := 1; i < len(b); i++ {
		ratio := b[i] / b[i-1]
		if math.Abs(ratio-2) > 1e-9 {
			t.Fatalf("bounds not log-spaced at %d: ratio %g", i, ratio)
		}
	}
	if last := b[len(b)-1]; last < 60 {
		t.Fatalf("last bound %g does not cover the 60s Retry-After cap", last)
	}
}

func TestObserveAndCount(t *testing.T) {
	h := NewLatency()
	samples := []float64{0.00005, 0.0001, 0.003, 0.5, 1000}
	var sum float64
	for _, s := range samples {
		h.Observe(s)
		sum += s
	}
	if h.Count() != int64(len(samples)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(samples))
	}
	if math.Abs(h.Sum()-sum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.Sum(), sum)
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
	// 10 samples in (1,2], so p50 lands mid-bucket and p100 at its top.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	if q := h.Quantile(1); q != 2 {
		t.Fatalf("p100 = %g, want bucket top 2", q)
	}
	q := h.Quantile(0.5)
	if q <= 1 || q > 2 {
		t.Fatalf("p50 = %g, want inside (1,2]", q)
	}
	// Overflow samples pin to the last finite bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(100)
	if q := h2.Quantile(0.5); q != 2 {
		t.Fatalf("overflow quantile = %g, want last bound 2", q)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewLatency(), NewLatency()
	a.Observe(0.001)
	b.Observe(0.01)
	b.Observe(0.02)
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if a.Count() != 3 {
		t.Fatalf("merged count = %d, want 3", a.Count())
	}
	if err := a.Merge(NewHistogram([]float64{1})); err == nil {
		t.Fatal("merge of mismatched layouts must error")
	}
	m := MergeAll(nil, a, nil)
	if m == nil || m.Count() != 3 {
		t.Fatalf("MergeAll = %v", m)
	}
	if MergeAll(nil, nil) != nil {
		t.Fatal("MergeAll of nils must be nil")
	}
}

func TestWriteSeriesCumulative(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.6, 3, 100} {
		h.Observe(v)
	}
	var sb strings.Builder
	h.WriteSeries(&sb, "x_seconds", `backend="sim"`)
	out := sb.String()
	for _, want := range []string{
		`x_seconds_bucket{backend="sim",le="1"} 1`,
		`x_seconds_bucket{backend="sim",le="2"} 3`,
		`x_seconds_bucket{backend="sim",le="4"} 4`,
		`x_seconds_bucket{backend="sim",le="+Inf"} 5`,
		`x_seconds_count{backend="sim"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteVecSkipsEmptyAndEscapes(t *testing.T) {
	hs := map[string]*Histogram{
		"with\"quote": NewHistogram([]float64{1}),
		"empty":       NewHistogram([]float64{1}),
	}
	hs[`with"quote`].Observe(0.5)
	var sb strings.Builder
	WriteVec(&sb, "y_seconds", "help text", "kind", hs)
	out := sb.String()
	if strings.Contains(out, `kind="empty"`) {
		t.Fatalf("empty member must be skipped:\n%s", out)
	}
	if !strings.Contains(out, `kind="with\"quote"`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE y_seconds histogram") {
		t.Fatalf("missing TYPE header:\n%s", out)
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := EscapeLabel(`a\b"c` + "\n"); got != `a\\b\"c\n` {
		t.Fatalf("escape = %q", got)
	}
	if got := EscapeLabel("plain"); got != "plain" {
		t.Fatalf("escape = %q", got)
	}
}

// TestDecisionErrorFactor pins the shim: a decision predicts no wall
// time, so there is no error to report, on any record or none.
func TestDecisionErrorFactor(t *testing.T) {
	for _, d := range []*Decision{
		{Backend: "fast", PredictedCycles: 100, ActualWallNS: 300},
		{Backend: "sim", Reason: "explicit-sim", ActualWallNS: 50, Batch: 4},
		nil,
	} {
		if f := d.ErrorFactor(); f != 0 {
			t.Errorf("%+v: error factor = %g, want 0", d, f)
		}
	}
}
