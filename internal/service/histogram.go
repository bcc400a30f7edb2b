package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// latencyBuckets is the finite bucket count of every warpd latency
// histogram: powers of two in seconds from 100µs to ~100s.  Log spacing
// keeps relative quantile error bounded (one octave) across the
// five-decade spread between a cached compile and a long fabric job.
const latencyBuckets = 21

// latencyBounds are the buckets' upper bounds, strictly increasing.
var latencyBounds = func() (b [latencyBuckets]float64) {
	v := 1e-4
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// histogram is a latency histogram over latencyBounds.  Buckets store
// non-cumulative counts; rendering produces the cumulative form the
// Prometheus exposition format requires.  It is not locked: the Metrics
// registry's one mutex guards all its series.
type histogram struct {
	counts [latencyBuckets + 1]int64 // the extra slot is the +Inf bucket
	sum    float64
	total  int64
}

// observe records one sample.
func (h *histogram) observe(v float64) {
	h.counts[sort.SearchFloat64s(latencyBounds[:], v)]++ // first bound >= v
	h.sum += v
	h.total++
}

// merge folds other into h.
func (h *histogram) merge(other *histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.sum += other.sum
	h.total += other.total
}

// quantile estimates the q-quantile (0..1) by linear interpolation
// inside the target bucket.  An empty histogram yields 0; samples that
// landed in the +Inf bucket pin the estimate to the last finite bound —
// a deliberate floor-at-the-top for backoff hints, not a tail estimate.
func (h *histogram) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := min(max(q, 0), 1) * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			if i == latencyBuckets { // +Inf bucket
				break
			}
			lo := 0.0
			if i > 0 {
				lo = latencyBounds[i-1]
			}
			frac := max((target-cum)/float64(c), 0)
			return lo + (latencyBounds[i]-lo)*frac
		}
		cum = next
	}
	return latencyBounds[latencyBuckets-1]
}

// writeSeries renders the histogram's _bucket/_sum/_count series under
// name with the given pre-rendered label pairs (e.g. `backend="sim"`,
// or "" for none).  The family's # HELP/# TYPE header is the caller's.
func (h *histogram) writeSeries(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, le := range latencyBounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, formatFloat(le), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.total)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.sum))
		fmt.Fprintf(w, "%s_count %d\n", name, h.total)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatFloat(h.sum))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.total)
}

// writeHistograms renders a labelled histogram family: one header, then
// every member's series in sorted label-value order.  Empty members are
// skipped so a freshly started daemon does not export zero-sample series
// for outcomes that never happened.
func writeHistograms(w io.Writer, name, help, label string, hs map[string]*histogram) {
	family(w, name, "histogram", help)
	keys := make([]string, 0, len(hs))
	for k, h := range hs {
		if h.total > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		hs[k].writeSeries(w, name, label+`="`+escapeLabel(k)+`"`)
	}
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
}

// formatFloat renders a float the way the exposition format expects:
// shortest representation, no trailing zeros, NaN/Inf spelled out.
func formatFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", f)
}
