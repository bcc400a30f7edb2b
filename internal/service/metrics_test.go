package service

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"warp/internal/telemetry"
	"warp/internal/workloads"
)

// promPoint is one parsed exposition sample.
type promPoint struct {
	name   string
	labels map[string]string
	value  float64
}

// promDoc is a strictly parsed exposition document: samples in order
// plus the TYPE declarations, with every grammar violation reported as
// an error.
type promDoc struct {
	types   map[string]string // family -> counter|gauge|histogram|summary
	samples []promPoint
}

// parsePrometheus is a strict hand-rolled parser for the text
// exposition format (version 0.0.4): it tokenizes each sample by hand
// (no regexp), resolves label escapes, and rejects anything the format
// forbids — unknown TYPEs, duplicate TYPE lines, samples before their
// family's TYPE, malformed label syntax, unparseable values.
func parsePrometheus(text string) (*promDoc, error) {
	doc := &promDoc{types: map[string]string{}}
	for n, line := range strings.Split(text, "\n") {
		lineNo := n + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: TYPE needs a name and a type", lineNo)
				}
				name, typ := fields[2], fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown type %q", lineNo, typ)
				}
				if _, dup := doc.types[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				doc.types[name] = typ
			}
			continue
		}
		p, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if familyOf(p.name, doc.types) == "" {
			return nil, fmt.Errorf("line %d: sample %s precedes its TYPE", lineNo, p.name)
		}
		doc.samples = append(doc.samples, *p)
	}
	return doc, nil
}

// familyOf resolves a sample name to its declared family, stripping
// the histogram/summary series suffixes.
func familyOf(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if t := types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return ""
}

// parseSample tokenizes one `name{label="v",...} value` line by hand.
func parseSample(line string) (*promPoint, error) {
	p := &promPoint{labels: map[string]string{}}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return nil, fmt.Errorf("no metric name in %q", line)
	}
	p.name = line[:i]
	if i < len(line) && line[i] == '{' {
		i++
		for {
			if i >= len(line) {
				return nil, fmt.Errorf("unterminated label set in %q", line)
			}
			if line[i] == '}' {
				i++
				break
			}
			start := i
			for i < len(line) && isNameChar(line[i], i == start) {
				i++
			}
			key := line[start:i]
			if key == "" || i >= len(line) || line[i] != '=' {
				return nil, fmt.Errorf("malformed label key in %q", line)
			}
			i++ // '='
			if i >= len(line) || line[i] != '"' {
				return nil, fmt.Errorf("label value not quoted in %q", line)
			}
			i++
			var val strings.Builder
			for i < len(line) && line[i] != '"' {
				if line[i] == '\\' {
					i++
					if i >= len(line) {
						return nil, fmt.Errorf("dangling escape in %q", line)
					}
					switch line[i] {
					case '\\', '"':
						val.WriteByte(line[i])
					case 'n':
						val.WriteByte('\n')
					default:
						return nil, fmt.Errorf("bad escape \\%c in %q", line[i], line)
					}
				} else {
					val.WriteByte(line[i])
				}
				i++
			}
			if i >= len(line) {
				return nil, fmt.Errorf("unterminated label value in %q", line)
			}
			i++ // closing '"'
			if _, dup := p.labels[key]; dup {
				return nil, fmt.Errorf("duplicate label %s in %q", key, line)
			}
			p.labels[key] = val.String()
			if i < len(line) && line[i] == ',' {
				i++
			}
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return nil, fmt.Errorf("no space before value in %q", line)
	}
	raw := line[i+1:]
	var err error
	switch raw {
	case "+Inf":
		p.value = math.Inf(1)
	case "-Inf":
		p.value = math.Inf(-1)
	case "NaN":
		p.value = math.NaN()
	default:
		p.value, err = strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", raw, err)
		}
	}
	return p, nil
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// labelKey renders a sample's labels minus le as a stable grouping key.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// checkHistograms verifies every declared histogram family's series
// invariants: per label set, le bounds strictly increasing with
// cumulative non-decreasing counts, a +Inf bucket equal to _count, and
// exactly one _sum and _count.
func checkHistograms(t *testing.T, doc *promDoc) {
	t.Helper()
	type series struct {
		les          []float64
		counts       []float64
		sums         int
		counts_total []float64
	}
	for fam, typ := range doc.types {
		if typ != "histogram" {
			continue
		}
		groups := map[string]*series{}
		for _, p := range doc.samples {
			base := ""
			switch p.name {
			case fam + "_bucket", fam + "_sum", fam + "_count":
				base = p.name[len(fam):]
			default:
				continue
			}
			key := labelKey(p.labels)
			g := groups[key]
			if g == nil {
				g = &series{}
				groups[key] = g
			}
			switch base {
			case "_bucket":
				le := p.labels["le"]
				if le == "" {
					t.Errorf("%s: bucket sample without le label", fam)
					continue
				}
				bound := math.Inf(1)
				if le != "+Inf" {
					var err error
					bound, err = strconv.ParseFloat(le, 64)
					if err != nil {
						t.Errorf("%s: unparseable le %q", fam, le)
						continue
					}
				}
				g.les = append(g.les, bound)
				g.counts = append(g.counts, p.value)
			case "_sum":
				g.sums++
			case "_count":
				g.counts_total = append(g.counts_total, p.value)
			}
		}
		if len(groups) == 0 {
			t.Errorf("histogram family %s declared but has no series", fam)
		}
		for key, g := range groups {
			if len(g.les) < 2 || !math.IsInf(g.les[len(g.les)-1], 1) {
				t.Errorf("%s{%s}: want buckets ending in +Inf, got %v", fam, key, g.les)
				continue
			}
			for i := 1; i < len(g.les); i++ {
				if g.les[i] <= g.les[i-1] {
					t.Errorf("%s{%s}: le bounds not increasing at %d: %v", fam, key, i, g.les)
				}
				if g.counts[i] < g.counts[i-1] {
					t.Errorf("%s{%s}: cumulative counts decrease at %d: %v", fam, key, i, g.counts)
				}
			}
			if g.sums != 1 {
				t.Errorf("%s{%s}: %d _sum series, want 1", fam, key, g.sums)
			}
			if len(g.counts_total) != 1 {
				t.Errorf("%s{%s}: %d _count series, want 1", fam, key, len(g.counts_total))
			} else if inf := g.counts[len(g.counts)-1]; g.counts_total[0] != inf {
				t.Errorf("%s{%s}: _count %v != +Inf bucket %v", fam, key, g.counts_total[0], inf)
			}
		}
	}
}

// TestMetricsRoundTripStrict drives the service through compiles and
// runs on both backends (a partitioned job included), then feeds
// GET /metrics through the strict parser and checks the histogram
// invariants plus the telemetry-plane series the dashboards key on.
func TestMetricsRoundTripStrict(t *testing.T) {
	svc := New(Config{Workers: 2, Arrays: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	progs := buildPrograms(t)
	p := progs[0]
	cresp, cbody := postJSON(t, client, ts.URL+"/compile", CompileRequest{Source: p.src})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d: %s", cresp.StatusCode, cbody)
	}
	for _, backend := range []string{"sim", "fast", ""} {
		resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{
			Source: p.src, Inputs: p.inputs, Backend: backend,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run backend %q: status %d: %s", backend, resp.StatusCode, body)
		}
	}
	const d = 16
	a, b := workloads.LargeMatmulData(d, d, d, 5)
	resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{
		Source: workloads.Matmul(8), Inputs: map[string][]float64{"a": a, "bmat": b},
		Partition: &PartitionJSON{Workload: "matmul", M: d, K: d, N: d},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partitioned run: status %d: %s", resp.StatusCode, body)
	}

	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q does not declare exposition version 0.0.4", ct)
	}

	doc, err := parsePrometheus(string(mbody))
	if err != nil {
		t.Fatalf("strict parse of /metrics failed: %v", err)
	}
	checkHistograms(t, doc)

	find := func(name string, labels map[string]string) *promPoint {
		for i := range doc.samples {
			s := &doc.samples[i]
			if s.name != name {
				continue
			}
			ok := true
			for k, v := range labels {
				if s.labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				return s
			}
		}
		return nil
	}
	for _, want := range []struct {
		name   string
		labels map[string]string
	}{
		{"warpd_compile_seconds_count", map[string]string{"result": "miss"}},
		{"warpd_run_seconds_count", map[string]string{"backend": "sim"}},
		{"warpd_run_seconds_count", map[string]string{"backend": "fast"}},
		{"warpd_queue_wait_seconds_count", nil},
		{"warpd_decision_total", map[string]string{"backend": "sim", "reason": "explicit-sim"}},
		{"warpd_decision_total", map[string]string{"backend": "fast", "reason": "explicit-fast"}},
	} {
		s := find(want.name, want.labels)
		if s == nil {
			t.Errorf("/metrics missing %s%v", want.name, want.labels)
			continue
		}
		if s.value <= 0 {
			t.Errorf("%s%v = %v, want > 0", want.name, want.labels, s.value)
		}
	}
	// The queue-wait count covers every pooled request (4 runs).
	if s := find("warpd_queue_wait_seconds_count", nil); s != nil && s.value < 4 {
		t.Errorf("queue-wait count %v, want >= 4", s.value)
	}
	// A decision predicts no wall time, so there is no misprediction to
	// export.
	for _, s := range doc.samples {
		if strings.HasPrefix(s.name, "warpd_prediction_error") {
			t.Errorf("/metrics still exports %s%v", s.name, s.labels)
		}
	}
}

// TestMetricsFreshGolden pins, byte for byte, what a server that has
// served nothing exposes: family names, HELP text, TYPEs and order are a
// contract with dashboards, so the renderer may change shape only while
// this file stays identical.
func TestMetricsFreshGolden(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	want, err := os.ReadFile("testdata/metrics_fresh.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("fresh /metrics (%d lines) differs from the golden (%d lines) first at line %d", len(g), len(w), i+1)
	}
}

// TestRetryAfterFromQuantiles pins the Retry-After contract on the
// histogram-quantile path: the estimate is median x (queued ahead + 1)
// / workers, floored at 1s and capped at 60s.
func TestRetryAfterFromQuantiles(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	// No completed runs: the median is 0 and the floor holds.
	if got := svc.retryAfterSeconds(); got != 1 {
		t.Errorf("empty-histogram Retry-After = %d, want floor 1", got)
	}

	// Fast runs keep the estimate at the floor.
	for i := 0; i < 8; i++ {
		svc.metrics.observe(&runOutcome{result: "ok", stats: RunStatsJSON{Backend: "sim"}, seconds: 0.01})
	}
	if got := svc.retryAfterSeconds(); got != 1 {
		t.Errorf("fast-run Retry-After = %d, want 1", got)
	}

	// Pathologically slow runs hit the cap regardless of queue depth.
	for i := 0; i < 100; i++ {
		svc.metrics.observe(&runOutcome{result: "ok", stats: RunStatsJSON{Backend: "sim"}, seconds: 3000})
	}
	if got := svc.retryAfterSeconds(); got != 60 {
		t.Errorf("slow-run Retry-After = %d, want cap 60", got)
	}

	// The median merges backends: samples spread across sim and fast
	// count as one population.
	m := NewMetrics()
	m.observe(&runOutcome{result: "ok", stats: RunStatsJSON{Backend: "sim"}, seconds: 2})
	m.observe(&runOutcome{result: "ok", stats: RunStatsJSON{Backend: "fast"}, seconds: 2})
	m.observe(&runOutcome{result: "ok", stats: RunStatsJSON{Backend: "sim"}, seconds: 2})
	med := m.MedianRunSeconds()
	if med < 1 || med > 4 {
		t.Errorf("merged median = %v, want about 2 (log-bucket tolerance)", med)
	}
}

// TestQuantileInterpolation pins the telemetry histogram quantile math
// the Retry-After estimate rides on, through the service's own
// registry (samples at known positions in the log buckets).
func TestQuantileInterpolation(t *testing.T) {
	m := NewMetrics()
	if m.MedianRunSeconds() != 0 {
		t.Errorf("empty registry median = %v, want 0", m.MedianRunSeconds())
	}
	// All samples beyond the last bound pin to the last finite bound.
	m.observe(&runOutcome{result: "ok", stats: RunStatsJSON{Backend: "sim"}, seconds: 1e9})
	bounds := telemetry.LatencyBounds()
	if got, want := m.MedianRunSeconds(), bounds[len(bounds)-1]; got != want {
		t.Errorf("overflow median = %v, want last bound %v", got, want)
	}
}
