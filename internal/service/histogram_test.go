package service

import (
	"math"
	"strings"
	"testing"
)

func TestLatencyBoundsLogSpaced(t *testing.T) {
	b := latencyBounds
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
	var h histogram
	samples := []float64{0.00005, 0.0001, 0.003, 0.5, 1000}
	var sum float64
	for _, s := range samples {
		h.observe(s)
		sum += s
	}
	if h.total != int64(len(samples)) {
		t.Fatalf("count = %d, want %d", h.total, len(samples))
	}
	if math.Abs(h.sum-sum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.sum, sum)
	}
	// 1e-4 lands on its own bound's bucket (le is inclusive), 1000 past
	// the last one.
	if h.counts[0] != 2 || h.counts[latencyBuckets] != 1 {
		t.Fatalf("buckets = %v", h.counts)
	}
}

func TestQuantile(t *testing.T) {
	var h histogram
	if q := h.quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
	// 10 samples in (1e-4, 2e-4], so p50 lands mid-bucket and p100 at its
	// top.
	for i := 0; i < 10; i++ {
		h.observe(1.5e-4)
	}
	if q := h.quantile(1); q != 2e-4 {
		t.Fatalf("p100 = %g, want bucket top 2e-4", q)
	}
	q := h.quantile(0.5)
	if q <= 1e-4 || q > 2e-4 {
		t.Fatalf("p50 = %g, want inside (1e-4, 2e-4]", q)
	}
	// Overflow samples pin to the last finite bound.
	var h2 histogram
	h2.observe(1e9)
	if q, want := h2.quantile(0.5), latencyBounds[latencyBuckets-1]; q != want {
		t.Fatalf("overflow quantile = %g, want last bound %g", q, want)
	}
}

func TestMerge(t *testing.T) {
	var a, b histogram
	a.observe(0.001)
	b.observe(0.01)
	b.observe(0.02)
	a.merge(&b)
	if a.total != 3 || math.Abs(a.sum-0.031) > 1e-12 {
		t.Fatalf("merged count %d, sum %g; want 3, 0.031", a.total, a.sum)
	}
	var want histogram
	for _, v := range []float64{0.001, 0.01, 0.02} {
		want.observe(v)
	}
	if a.counts != want.counts {
		t.Fatalf("merged buckets %v, want %v", a.counts, want.counts)
	}
}

func TestWriteSeriesCumulative(t *testing.T) {
	var h histogram
	for _, v := range []float64{0.5e-4, 1.5e-4, 1.6e-4, 3e-4, 1e5} {
		h.observe(v)
	}
	var sb strings.Builder
	h.writeSeries(&sb, "x_seconds", `backend="sim"`)
	out := sb.String()
	for _, want := range []string{
		`x_seconds_bucket{backend="sim",le="0.0001"} 1`,
		`x_seconds_bucket{backend="sim",le="0.0002"} 3`,
		`x_seconds_bucket{backend="sim",le="0.0004"} 4`,
		`x_seconds_bucket{backend="sim",le="104.8576"} 4`,
		`x_seconds_bucket{backend="sim",le="+Inf"} 5`,
		`x_seconds_count{backend="sim"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteHistogramsSkipsEmptyAndEscapes(t *testing.T) {
	hs := map[string]*histogram{`with"quote`: {}, "empty": {}}
	hs[`with"quote`].observe(0.5)
	var sb strings.Builder
	writeHistograms(&sb, "y_seconds", "help text", "kind", hs)
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
	if got := escapeLabel(`a\b"c` + "\n"); got != `a\\b\"c\n` {
		t.Fatalf("escape = %q", got)
	}
	if got := escapeLabel("plain"); got != "plain" {
		t.Fatalf("escape = %q", got)
	}
}
