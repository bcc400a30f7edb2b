package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"warp/internal/obs"
)

// beginRequest assigns a request ID, opens the root span and registers
// the request as live.  When no finished records are kept the trace
// stays nil and every span call downstream is a free no-op.
func (s *Server) beginRequest(endpoint string) *request {
	seq := s.seq.Add(1)
	rq := &request{seq: seq, RequestRecord: RequestRecord{
		ID:       fmt.Sprintf("r%06d", seq),
		Endpoint: endpoint,
		Start:    time.Now(),
	}}
	if s.requests.keep > 0 {
		rq.tr = obs.NewTrace()
		rq.root = rq.tr.StartSpan("request", nil)
		rq.root.Annotate("endpoint", endpoint)
	}
	s.requests.add(rq)
	return rq
}

// finishRequest closes the root span and the progress stream, completes
// the flight record, files it among the finished, and emits the
// structured log line.  The logged total is the root span's duration,
// so the child spans always sum consistently against it.  It returns
// the error the client is to see: a panic's stack goes to the record
// and the log only; the client gets the request ID to find it under.
func (s *Server) finishRequest(rq *request, err error) error {
	rq.root.End()
	rq.endProgress()
	rq.Status, rq.Outcome, _ = classify(err)
	if err != nil {
		rq.Error = err.Error()
		var pe *panicError
		if errors.As(err, &pe) {
			rq.Error += "\n" + string(pe.stack)
			err = fmt.Errorf("%w (request %s)", err, rq.ID)
		}
	}
	rq.Spans = rq.tr.Spans()
	rq.TotalNS = int64(time.Since(rq.Start))
	if len(rq.Spans) > 0 {
		rq.TotalNS = rq.Spans[0].DurNS() // root is always span 0
	}
	rq.HasProfile = rq.Source != nil
	s.requests.finish(rq)

	attrs := make([]slog.Attr, 0, 12)
	attrs = append(attrs,
		slog.String("id", rq.ID),
		slog.String("endpoint", rq.Endpoint),
		slog.String("outcome", rq.Outcome),
		slog.Int("status", rq.Status),
		slog.Int64("total_ns", rq.TotalNS),
	)
	for _, name := range []string{"cache", "queue-wait", "run"} {
		if d, ok := spanDur(rq.Spans, name); ok {
			attrs = append(attrs, slog.Int64(name+"_ns", d))
		}
	}
	if rq.Program != "" {
		attrs = append(attrs,
			slog.String("program", shortKey(rq.Program)),
			slog.Bool("cached", rq.Cached),
		)
	}
	if rq.Cycles > 0 {
		attrs = append(attrs, slog.Int64("cycles", rq.Cycles))
	}
	level := slog.LevelInfo
	if err != nil {
		level = slog.LevelWarn
		attrs = append(attrs, slog.String("error", rq.Error))
	}
	s.log.LogAttrs(context.Background(), level, "request", attrs...)
	return err
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

// lookup resolves a handler's {id} to its tracked request, or answers
// 404 and returns nil.  A live request's record is still being written
// by its own goroutine, so only the progress views (live) may see one.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, live bool) *request {
	id := r.PathValue("id")
	rq, finished := s.requests.get(id)
	if rq != nil && (live && rq.streams() || !live && finished) {
		return rq
	}
	writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no tracked request %q", id)})
	return nil
}

// handleDebugRequests serves the flight recorder: the last N requests,
// newest first, each with its full span tree.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Requests []*RequestRecord `json:"requests"`
	}{s.requests.records()})
}

// handleDebugRequest serves one recorded request's full flight record —
// outcome, span tree, and backend decision audit.
func (s *Server) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	if rq := s.lookup(w, r, false); rq != nil {
		writeJSON(w, http.StatusOK, &rq.RequestRecord)
	}
}

// handleDebugTrace serves one recorded request as a Chrome trace-event
// JSON download, loadable in Perfetto / chrome://tracing.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	rq := s.lookup(w, r, false)
	if rq == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", rq.ID+".trace.json"))
	_ = obs.WriteChromeSpans(w, rq.Spans)
}

// handleDebugProfile serves one profiled request's source-line cycle
// profile.  The default download is a gzipped pprof protobuf (feed it
// straight to `go tool pprof`); ?format=text returns the hot-spot
// report and ?format=folded the flame-graph stack lines.
func (s *Server) handleDebugProfile(w http.ResponseWriter, r *http.Request) {
	rq := s.lookup(w, r, false)
	if rq == nil {
		return
	}
	id, src := rq.ID, rq.Source
	if src == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: fmt.Sprintf("request %q was not profiled; rerun with \"profile\": true", id)})
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "pprof":
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".pprof.pb.gz"))
		_ = src.WritePprof(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, src.Report())
	case "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".folded"))
		_ = src.WriteFolded(w)
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("unknown profile format %q (want pprof, text or folded)", format)})
	}
}
