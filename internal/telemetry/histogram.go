// Package telemetry is the daemon's measurement plane: a dependency-free
// log-bucketed histogram (mergeable, with quantile estimation and
// Prometheus text rendering) and the backend decision audit record: the
// run's exact cycle and operation counts beside its measured wall time.
//
// The package sits below internal/service and internal/driver so both
// can share types without an import cycle: the driver produces Decisions,
// the service aggregates them into histograms and exports everything at
// /metrics.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// LatencyBounds returns the standard log-spaced bucket upper bounds in
// seconds used for every warpd latency histogram: powers of two from
// 100µs to ~100s.  Log spacing keeps relative quantile error bounded
// (one octave) across the five-decade spread between a cached compile
// and a long fabric job.
func LatencyBounds() []float64 {
	bounds := make([]float64, 21)
	v := 1e-4
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// Histogram is a fixed-bound bucket histogram.  Buckets store
// non-cumulative counts internally; rendering produces the cumulative
// form the Prometheus exposition format requires.  Histogram is not
// internally locked — callers synchronize, matching how the service
// metrics registry already owns one mutex for all its series.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds
	counts []int64   // len(bounds)+1; the extra slot is the +Inf bucket
	sum    float64
	total  int64
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds.  It panics on unsorted or empty bounds: bucket layouts
// are compiled-in constants, not runtime data.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: own, counts: make([]int64, len(own)+1)}
}

// NewLatency builds a histogram over LatencyBounds.
func NewLatency() *Histogram { return NewHistogram(LatencyBounds()) }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Merge folds other into h.  The bucket layouts must match exactly;
// merging histograms with different bounds is a programming error and
// returns one.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("telemetry: merge of mismatched histograms (%d vs %d buckets)", len(h.bounds), len(other.bounds))
	}
	for i, b := range h.bounds {
		if b != other.bounds[i] {
			return fmt.Errorf("telemetry: merge of mismatched histograms (bound %d: %g vs %g)", i, b, other.bounds[i])
		}
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.sum += other.sum
	h.total += other.total
	return nil
}

// MergeAll returns a fresh histogram holding the union of the given
// histograms' samples.  All arguments must share one bucket layout; nil
// entries are skipped.  It returns nil when no non-nil histogram was
// given.
func MergeAll(hs ...*Histogram) *Histogram {
	var out *Histogram
	for _, h := range hs {
		if h == nil {
			continue
		}
		if out == nil {
			out = NewHistogram(h.bounds)
		}
		if err := out.Merge(h); err != nil {
			panic(err) // mixed layouts across one family is a bug
		}
	}
	return out
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// inside the target bucket.  An empty histogram yields 0; samples that
// landed in the +Inf bucket pin the estimate to the last finite bound —
// a deliberate floor-at-the-top for backoff hints, not a tail estimate.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := q * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			if i == len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := 1.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

// WriteSeries renders the histogram's _bucket/_sum/_count series under
// name with the given pre-rendered label pairs (e.g. `backend="sim"`,
// or "" for none).  It does not emit # TYPE/# HELP headers — families
// with several label values share one header, so the caller owns it
// (see WriteVec).
func (h *Histogram) WriteSeries(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, le := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, FormatFloat(le), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.total)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, FormatFloat(h.sum))
		fmt.Fprintf(w, "%s_count %d\n", name, h.total)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, FormatFloat(h.sum))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.total)
}

// WriteVec renders a labelled histogram family: one # HELP/# TYPE
// header, then every member's series in sorted label-value order.
// Empty members are skipped so a freshly started daemon does not export
// zero-sample series for outcomes that never happened.
func WriteVec(w io.Writer, name, help, label string, hs map[string]*Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	keys := make([]string, 0, len(hs))
	for k := range hs {
		if hs[k] != nil && hs[k].total > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		hs[k].WriteSeries(w, name, label+`="`+EscapeLabel(k)+`"`)
	}
}

// Write renders an unlabelled histogram with its # HELP/# TYPE header.
func Write(w io.Writer, name, help string, h *Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	h.WriteSeries(w, name, "")
}

// EscapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double quote, and newline.
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// FormatFloat renders a float the way the exposition format expects:
// shortest representation, no trailing zeros, NaN/Inf spelled out.
func FormatFloat(f float64) string {
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
