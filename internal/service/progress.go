package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"warp/internal/obs"
)

// ProgressEvent is the wire form of one live-progress observation — the
// payload of the SSE stream at GET /debug/requests/{id}/progress and of
// the GET /debug/progress listing.
type ProgressEvent struct {
	ID          string `json:"id"`
	Cycles      int64  `json:"cycles"`
	TotalCycles int64  `json:"total_cycles,omitempty"`
	TilesDone   int    `json:"tiles_done,omitempty"`
	Tiles       int    `json:"tiles,omitempty"`
	Done        bool   `json:"done"`
}

// The progress half of a request.  The publish path is the simulator's
// poll stride, so it takes one mutex, does non-blocking channel sends,
// and returns — a slow subscriber loses intermediate updates (each
// channel keeps the newest), never stalls the run.

// publish is the obs.ProgressFunc wired into the run: it records the
// update and wakes the subscribers.  The stream ends with its first
// terminal update; a run that outlives that has nobody left to tell.
func (e *request) publish(u obs.ProgressUpdate) {
	e.mu.Lock()
	if !e.last.Done {
		e.last = u
		e.broadcast(u)
	}
	e.mu.Unlock()
}

// endProgress ends the stream from the last observed position if the
// run never delivered a terminal update itself (error, timeout,
// rejection), so subscribers always see it end.  Idempotent.
func (e *request) endProgress() {
	e.mu.Lock()
	u := e.last
	e.mu.Unlock()
	u.Done = true
	e.publish(u)
}

// broadcast hands u to every subscriber without blocking.  Delivery
// into a full subscriber channel drops that channel's oldest pending
// update, so the terminal update (published last) always lands.  The
// caller holds e.mu.
func (e *request) broadcast(u obs.ProgressUpdate) {
	for _, ch := range e.subs {
		select {
		case ch <- u:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- u:
			default:
			}
		}
	}
}

// progressEvent renders one update of request id in its wire form.
func progressEvent(id string, u obs.ProgressUpdate) ProgressEvent {
	return ProgressEvent{
		ID:          id,
		Cycles:      u.Cycles,
		TotalCycles: u.TotalCycles,
		TilesDone:   u.TilesDone,
		Tiles:       u.Tiles,
		Done:        u.Done,
	}
}

// snapshot returns the request's current progress as a wire event.
func (e *request) snapshot() ProgressEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	return progressEvent(e.ID, e.last)
}

// subscribe registers a watcher: it returns the current snapshot (so
// the first SSE event needs no wait) plus the update channel and the
// unsubscribe func.  After unsubscribe returns no more sends happen on
// the channel (publish holds the same lock), so the caller may simply
// abandon it.
func (e *request) subscribe() (ProgressEvent, <-chan obs.ProgressUpdate, func()) {
	ch := make(chan obs.ProgressUpdate, 16)
	e.mu.Lock()
	if e.subs == nil {
		e.subs = map[int]chan obs.ProgressUpdate{}
	}
	id := e.nextSub
	e.nextSub++
	e.subs[id] = ch
	snap := progressEvent(e.ID, e.last)
	e.mu.Unlock()
	return snap, ch, func() {
		e.mu.Lock()
		delete(e.subs, id)
		e.mu.Unlock()
	}
}

// handleDebugProgress lists every tracked request's latest progress.
func (s *Server) handleDebugProgress(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Progress []ProgressEvent `json:"progress"`
	}{s.requests.progress()})
}

// handleRequestProgress streams one request's live progress.  The
// default is Server-Sent Events: the first event is the current
// snapshot, each further "progress" event is one update, and the
// stream closes after a terminal "done" event.  ?format=json returns
// the current snapshot once instead.
func (s *Server) handleRequestProgress(w http.ResponseWriter, r *http.Request) {
	ent := s.lookup(w, r, true)
	if ent == nil {
		return
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, ent.snapshot())
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: "response writer cannot stream"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	snap, ch, cancel := ent.subscribe()
	defer cancel()
	writeSSE(w, snap)
	flusher.Flush()
	if snap.Done {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case u := <-ch:
			writeSSE(w, progressEvent(ent.ID, u))
			flusher.Flush()
			if u.Done {
				return
			}
		}
	}
}

// writeSSE renders one event in the text/event-stream framing.  The
// event name distinguishes the terminal update so shell clients can
// stop on `event: done` without parsing JSON.
func writeSSE(w http.ResponseWriter, ev ProgressEvent) {
	name := "progress"
	if ev.Done {
		name = "done"
	}
	data, _ := json.Marshal(ev)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
}
