package service

import (
	"sort"
	"sync"
	"time"

	"warp"
	"warp/internal/obs"
)

// RequestRecord is one served request in the flight recorder: the
// outcome scalars the operator greps for plus the full span tree the
// request accumulated (queue wait, cache lookup, per-phase compile,
// run — with the simulator's profile summary attached to the run span).
type RequestRecord struct {
	ID       string    `json:"id"`
	Endpoint string    `json:"endpoint"`
	Start    time.Time `json:"start"`
	Outcome  string    `json:"outcome"` // ok|error|timeout|rejected|canceled|livelock
	Status   int       `json:"status"`
	Error    string    `json:"error,omitempty"`
	Program  string    `json:"program,omitempty"` // content address
	Cached   bool      `json:"cached,omitempty"`
	Cycles   int64     `json:"cycles,omitempty"`
	// TotalNS is the root span's duration — the number the log line
	// reports, against which the child spans must sum consistently.
	TotalNS int64            `json:"total_ns"`
	Spans   []obs.SpanRecord `json:"spans"`
	// HasProfile flags a profiled run; the profile itself is excluded
	// from the /debug/requests listing (it can be megabytes) and served
	// from /debug/requests/{id}/profile instead.
	HasProfile bool                `json:"has_profile,omitempty"`
	Source     *warp.SourceProfile `json:"-"`
	// Decision is the run's backend decision audit: the chosen executor,
	// the reason, the exact cycle and operation counts, and the measured
	// wall time.
	Decision *warp.Decision `json:"decision,omitempty"`
	// Template is set on a bounds request (see warp.TemplateDetail).
	Template *warp.TemplateDetail `json:"template,omitempty"`
}

// request is the one record of a request from the handler edge to its
// eviction: the flight record, filled in place by the request's own
// goroutine; the open trace its stages hang their spans on; and the
// live-progress state the run publishes into and SSE watchers read.
type request struct {
	RequestRecord
	seq  int64      // registration order
	tr   *obs.Trace // nil when no finished record is kept
	root *obs.Span

	// finished is set, under the registry's lock, once the record is
	// complete; until then only its own goroutine may touch the record.
	finished bool

	mu      sync.Mutex         // guards the progress state below
	last    obs.ProgressUpdate // last.Done: the stream has ended
	subs    map[int]chan obs.ProgressUpdate
	nextSub int
}

// streams reports whether the request has a progress stream: every
// request that runs a program does, a bare compilation does not.
func (e *request) streams() bool { return e.Endpoint != "/compile" }

// registry is the service's one index of requests, by ID.  A live
// request is always tracked, so a burst of concurrent runs cannot lose
// a progress stream mid-run; a finished one stays — record and progress
// snapshot together — while it is among the last keep to finish, the
// "what just happened" surface behind GET /debug/requests.
type registry struct {
	keep int // finished requests kept; < 1 keeps none and traces nothing

	mu   sync.Mutex
	byID map[string]*request // live and done
	done []*request          // finished requests, oldest first
}

func newRegistry(keep int) *registry {
	return &registry{keep: keep, byID: map[string]*request{}}
}

// add starts tracking a live request.
func (g *registry) add(e *request) {
	g.mu.Lock()
	g.byID[e.ID] = e
	g.mu.Unlock()
}

// finish turns a live request into the newest finished one and forgets
// whichever finished request that pushes past keep.
func (g *registry) finish(e *request) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e.finished = true
	g.done = append(g.done, e)
	if len(g.done) > g.keep {
		delete(g.byID, g.done[0].ID)
		g.done[0] = nil // the backing array must not pin it
		g.done = g.done[1:]
	}
}

// get returns the tracked request with the given ID — nil if there is
// none — and whether it has finished.
func (g *registry) get(id string) (e *request, finished bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e = g.byID[id]
	return e, e != nil && e.finished
}

// records returns the finished requests' records, newest first.
func (g *registry) records() []*RequestRecord {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*RequestRecord, len(g.done))
	for i, e := range g.done {
		out[len(out)-1-i] = &e.RequestRecord
	}
	return out
}

// progress snapshots every tracked progress stream, live or finished,
// in registration order (oldest first) — the discovery surface for
// watchers that do not yet know a request ID.
func (g *registry) progress() []ProgressEvent {
	g.mu.Lock()
	tracked := make([]*request, 0, len(g.byID))
	for _, e := range g.byID {
		if e.streams() {
			tracked = append(tracked, e)
		}
	}
	g.mu.Unlock()
	sort.Slice(tracked, func(i, j int) bool { return tracked[i].seq < tracked[j].seq })
	out := make([]ProgressEvent, len(tracked))
	for i, e := range tracked {
		out[i] = e.snapshot()
	}
	return out
}
