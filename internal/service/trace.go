package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"warp"
	"warp/internal/obs"
)

// requestCtx carries one request from the handler edge to the finish
// line: the flight record, filled in place as the request resolves its
// program and runs, plus the open root span of its trace.
type requestCtx struct {
	*RequestRecord
	tr   *obs.Trace // nil when the flight recorder is disabled
	root *obs.Span
}

// beginRequest assigns a request ID and opens the root span.  When the
// flight recorder is disabled the trace stays nil and every span call
// downstream is a free no-op.
func (s *Server) beginRequest(endpoint string) *requestCtx {
	rc := &requestCtx{RequestRecord: &RequestRecord{
		ID:       fmt.Sprintf("r%06d", s.seq.Add(1)),
		Endpoint: endpoint,
		Start:    time.Now(),
	}}
	if s.flight.enabled() {
		rc.tr = obs.NewTrace()
		rc.root = rc.tr.StartSpan("request", nil)
		rc.root.Annotate("endpoint", endpoint)
	}
	return rc
}

// finishRequest closes the root span, files the flight record, and
// emits the structured log line.  The logged total is the root span's
// duration, so the child spans always sum consistently against it.
func (s *Server) finishRequest(rc *requestCtx, err error) {
	rc.root.End()
	rc.Outcome = outcomeOf(err)
	rc.Status = http.StatusOK
	if err != nil {
		rc.Status = errStatus(err)
		rc.Error = err.Error()
	}
	rc.Spans = rc.tr.Spans()
	rc.TotalNS = int64(time.Since(rc.Start))
	if len(rc.Spans) > 0 {
		rc.TotalNS = rc.Spans[0].DurNS() // root is always span 0
	}
	rc.HasProfile = rc.Source != nil
	s.flight.add(rc.RequestRecord)

	attrs := make([]slog.Attr, 0, 12)
	attrs = append(attrs,
		slog.String("id", rc.ID),
		slog.String("endpoint", rc.Endpoint),
		slog.String("outcome", rc.Outcome),
		slog.Int("status", rc.Status),
		slog.Int64("total_ns", rc.TotalNS),
	)
	for _, name := range []string{"cache", "queue-wait", "run"} {
		if d, ok := spanDur(rc.Spans, name); ok {
			attrs = append(attrs, slog.Int64(name+"_ns", d))
		}
	}
	if rc.Program != "" {
		attrs = append(attrs,
			slog.String("program", shortKey(rc.Program)),
			slog.Bool("cached", rc.Cached),
		)
	}
	if rc.Cycles > 0 {
		attrs = append(attrs, slog.Int64("cycles", rc.Cycles))
	}
	level := slog.LevelInfo
	if err != nil {
		level = slog.LevelWarn
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	s.log.LogAttrs(context.Background(), level, "request", attrs...)
}

// outcomeOf classifies an error for the flight record and log line.
// Finer-grained than the metrics result labels, which stay unchanged.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, ErrBusy), errors.Is(err, ErrClosed):
		return "rejected"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, warp.ErrLivelock):
		return "livelock"
	}
	return "error"
}

func cacheResult(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// shortKey abbreviates a content address for log lines; the flight
// record keeps the full key.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// spanDur finds the first span with the given name and returns its
// duration.
func spanDur(spans []obs.SpanRecord, name string) (int64, bool) {
	for i := range spans {
		if spans[i].Name == name {
			return spans[i].DurNS(), true
		}
	}
	return 0, false
}

// handleDebugRequests serves the flight recorder: the last N requests,
// newest first, each with its full span tree.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Requests []*RequestRecord `json:"requests"`
	}{s.flight.snapshot()})
}

// handleDebugRequest serves one recorded request's full flight record —
// outcome, span tree, and backend decision audit.
func (s *Server) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec := s.flight.get(id)
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no recorded request %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleDebugTrace serves one recorded request as a Chrome trace-event
// JSON download, loadable in Perfetto / chrome://tracing.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec := s.flight.get(id)
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no recorded request %q", id)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".trace.json"))
	_ = obs.WriteChromeSpans(w, rec.Spans)
}

// handleDebugProfile serves one profiled request's source-line cycle
// profile.  The default download is a gzipped pprof protobuf (feed it
// straight to `go tool pprof`); ?format=text returns the hot-spot
// report and ?format=folded the flame-graph stack lines.
func (s *Server) handleDebugProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec := s.flight.get(id)
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no recorded request %q", id)})
		return
	}
	if rec.Source == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: fmt.Sprintf("request %q was not profiled; rerun with \"profile\": true", id)})
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "pprof":
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".pprof.pb.gz"))
		_ = rec.Source.WritePprof(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, rec.Source.Report())
	case "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".folded"))
		_ = rec.Source.WriteFolded(w)
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("unknown profile format %q (want pprof, text or folded)", format)})
	}
}
