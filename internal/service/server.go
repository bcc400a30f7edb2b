package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"warp"
	"warp/internal/obs"
	"warp/internal/verify"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent simulations (default 4).
	Workers int
	// QueueCap is the admission-queue depth beyond the workers; a full
	// queue turns new run requests away with 429 (default 64).
	QueueCap int
	// CacheSize is the number of compiled programs kept resident
	// (default 128).
	CacheSize int
	// DefaultTimeout bounds a run request that names no deadline of its
	// own (default 30s).
	DefaultTimeout time.Duration
	// MaxCycles is the per-run livelock guard (0 keeps the default,
	// sim.Controls.Limit).
	MaxCycles int64
	// Arrays is the default fabric width for partitioned run requests
	// that name no arrays count of their own (default 2).
	Arrays int
	// MaxBodyBytes bounds a request body (default 8 MiB).
	MaxBodyBytes int64
	// Compile substitutes the compiler entry point (nil = warp.Compile);
	// tests use it to instrument driver invocations.
	Compile CompileFunc
	// TemplatePrograms caps how many compiled programs each resident
	// ${...} template keeps (default 64); the template count itself is
	// bounded by CacheSize.
	TemplatePrograms int
	// Logger receives one structured record per served request (ID,
	// outcome, span durations).  nil discards.
	Logger *slog.Logger
	// FlightSize is how many finished requests the flight recorder keeps
	// for GET /debug/requests (default 64; negative keeps none: no
	// per-request tracing, and only live requests are tracked).
	FlightSize int
}

// Server is the compile-and-run service: an http.Handler in front of
// the compile cache and the simulation worker pool.
type Server struct {
	cache     *Cache
	templates *TemplateCache
	pool      *Pool
	metrics   *Metrics
	cfg       Config
	mux       *http.ServeMux
	log       *slog.Logger
	requests  *registry
	seq       atomic.Int64 // request-ID counter
}

// New builds a Server from the config, applying defaults for zero
// fields.
func New(cfg Config) *Server {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 128
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Arrays == 0 {
		cfg.Arrays = 2
	}
	if cfg.FlightSize == 0 {
		cfg.FlightSize = 64
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.TemplatePrograms == 0 {
		cfg.TemplatePrograms = 64
	}
	s := &Server{
		cache:     NewCache(cfg.CacheSize, cfg.Compile),
		templates: NewTemplateCache(cfg.CacheSize, cfg.TemplatePrograms, nil),
		pool:      NewPool(cfg.Workers, cfg.QueueCap),
		metrics:   NewMetrics(),
		cfg:       cfg,
		mux:       http.NewServeMux(),
		log:       logger,
		requests:  newRegistry(cfg.FlightSize),
	}
	s.mux.HandleFunc("POST /compile", s.handleCompile)
	s.mux.HandleFunc("POST /run", s.handleRun)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /debug/requests/{id}", s.handleDebugRequest)
	s.mux.HandleFunc("GET /debug/requests/{id}/trace", s.handleDebugTrace)
	s.mux.HandleFunc("GET /debug/requests/{id}/profile", s.handleDebugProfile)
	s.mux.HandleFunc("GET /debug/requests/{id}/progress", s.handleRequestProgress)
	s.mux.HandleFunc("GET /debug/progress", s.handleDebugProgress)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains the worker pool: every admitted run finishes before it
// returns.  New run submissions fail with ErrClosed.
func (s *Server) Close() { s.pool.Close() }

// CompileOptions is the wire form of warp.Options.
type CompileOptions struct {
	NoOptimize bool `json:"no_optimize,omitempty"`
	Pipeline   bool `json:"pipeline,omitempty"`
	Cells      int  `json:"cells,omitempty"`
	// Bounds makes the source a ${...} template: each placeholder is
	// replaced by its value under these parameter values (e.g. {"n":
	// 32}) and the resulting text is compiled.  Symbolic says the same
	// of a source whose bounds are empty (which then fails unless it
	// names no parameter); non-empty Bounds implies it.
	Symbolic bool             `json:"symbolic,omitempty"`
	Bounds   map[string]int64 `json:"bounds,omitempty"`
}

// symbolic reports whether the request asked for the template path.
func (o CompileOptions) symbolic() bool { return o.Symbolic || len(o.Bounds) > 0 }

func (o CompileOptions) warpOptions() warp.Options {
	return warp.Options{NoOptimize: o.NoOptimize, Pipeline: o.Pipeline, Cells: o.Cells}
}

// CompileRequest asks for a compilation.
type CompileRequest struct {
	Source  string         `json:"source"`
	Options CompileOptions `json:"options"`
}

// ParamJSON describes one module parameter on the wire.
type ParamJSON struct {
	Name string `json:"name"`
	Out  bool   `json:"out"`
	Size int    `json:"size"`
}

// CompileResponse carries the program's content address for later /run
// calls, plus the compiler metrics.  Template is present on a bounds
// request (always {"symbolic": false}: see warp.TemplateDetail).
type CompileResponse struct {
	Program  string               `json:"program"` // content address (cache key)
	Cached   bool                 `json:"cached"`
	Module   string               `json:"module"`
	Cells    int                  `json:"cells"`
	Skew     int64                `json:"skew"`
	Params   []ParamJSON          `json:"params"`
	Template *warp.TemplateDetail `json:"template,omitempty"`
}

// RunRequest executes a program: either a previously returned content
// address or inline source (compiled through the same cache).  With
// Partition set, the program is treated as an array-sized tile kernel
// and Inputs as the full oversized problem operands: the server
// partitions the problem into tiles and farms them across concurrent
// simulator instances.
type RunRequest struct {
	Program   string               `json:"program,omitempty"`
	Source    string               `json:"source,omitempty"`
	Options   CompileOptions       `json:"options"`
	Inputs    map[string][]float64 `json:"inputs"`
	TimeoutMS int64                `json:"timeout_ms,omitempty"`
	MaxCycles int64                `json:"max_cycles,omitempty"`
	Partition *PartitionJSON       `json:"partition,omitempty"`
	// Profile turns on per-µPC counter collection for this run; the
	// source-line profile is then downloadable from
	// GET /debug/requests/{id}/profile while the request stays in the
	// flight recorder.
	Profile bool `json:"profile,omitempty"`
	// Backend selects the execution backend: "auto" (or omitted) runs
	// the fast dataflow executor unless the run is profiled, and the
	// cycle-accurate simulator then; "sim" forces simulation; "fast"
	// forces the fast executor.
	Backend string `json:"backend,omitempty"`
}

// PartitionJSON describes the oversized problem a partitioned run
// request carries.  Inputs are keyed by the tile kernel's input
// parameter names, holding the full problem operands: for matmul the
// first declared input is the m×k A matrix and the second the k×n B
// matrix; for conv1d the parameter sized to the array is the kernel
// weights and the other is the full signal.
type PartitionJSON struct {
	Workload string `json:"workload"` // "matmul" or "conv1d"
	// Matmul problem shape (row-major operands).
	M int `json:"m,omitempty"`
	K int `json:"k,omitempty"`
	N int `json:"n,omitempty"`
	// Arrays overrides the server's default fabric width.
	Arrays int `json:"arrays,omitempty"`
	// TileRetries is how many extra attempts a livelocked tile gets
	// (default 1); TileDeadlineMS bounds each attempt (0 = none).
	TileRetries    int   `json:"tile_retries,omitempty"`
	TileDeadlineMS int64 `json:"tile_deadline_ms,omitempty"`
}

// FabricJSON is the wire form of the fabric-level statistics of one
// partitioned run.
type FabricJSON struct {
	Tiles           int     `json:"tiles"`
	Arrays          int     `json:"arrays"`
	Dispatched      int     `json:"dispatched"`
	Retried         int     `json:"retried"`
	Failed          int     `json:"failed"`
	AggregateCycles int64   `json:"aggregate_cycles"`
	MakespanCycles  int64   `json:"makespan_cycles"`
	Speedup         float64 `json:"speedup"`
	StagedWords     int64   `json:"staged_words"`
}

// RunStatsJSON is the wire form of the run statistics: a run's summary,
// which warp.RunStats embeds.
type RunStatsJSON = warp.RunSummary

// RunResponse carries the outputs and statistics of one run.  Fabric
// is set only for partitioned runs; Request names the flight record a
// profiled run's download URL is built from; Decision is the backend
// decision audit — which executor ran the program, why, its exact cycle
// and operation counts, and the measured wall time.
type RunResponse struct {
	Program  string               `json:"program"`
	Cached   bool                 `json:"cached"`
	Outputs  map[string][]float64 `json:"outputs"`
	Stats    RunStatsJSON         `json:"stats"`
	Fabric   *FabricJSON          `json:"fabric,omitempty"`
	Request  string               `json:"request,omitempty"`
	Decision *warp.Decision       `json:"decision,omitempty"`
}

// BatchRequest runs several requests through the pool concurrently.
type BatchRequest struct {
	Requests []RunRequest `json:"requests"`
}

// BatchItem is one batch result: exactly one of Result and Error is
// set.
type BatchItem struct {
	Result *RunResponse `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// BatchResponse preserves request order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Diagnostics carries the static verifier's structured findings
	// when the error is a verification rejection (one entry per
	// violated invariant: cell, instruction index, invariant name).
	Diagnostics []verify.Diagnostic `json:"diagnostics,omitempty"`
}

// httpError is an error carrying its HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// classify is the service's one reading of an error: the HTTP status it
// is answered with, its outcome in the flight record and the log line,
// and its (coarser) metrics result label.
func classify(err error) (status int, outcome, result string) {
	var he *httpError
	switch {
	case err == nil:
		return http.StatusOK, "ok", "ok"
	case errors.As(err, &he):
		return he.status, "error", "error"
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests, "rejected", "rejected"
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, "rejected", "error"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout", "timeout"
	case errors.Is(err, context.Canceled):
		// The client went away; the status is moot but 499-style
		// accounting keeps logs honest (no stdlib constant exists).
		return 499, "canceled", "error"
	case errors.Is(err, warp.ErrLivelock):
		return http.StatusUnprocessableEntity, "livelock", "error"
	case isVerifyError(err):
		// Well-formed yet unprocessable: the microcode failed
		// verification.
		return http.StatusUnprocessableEntity, "error", "error"
	case errors.Is(err, errPanic):
		return http.StatusInternalServerError, "error", "error"
	}
	return http.StatusBadRequest, "error", "error"
}

// isVerifyError reports whether err is a static-verification rejection.
func isVerifyError(err error) bool {
	var verr *verify.Error
	return errors.As(err, &verr)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, _, _ := classify(err)
	if status == http.StatusTooManyRequests {
		// Backpressure contract: tell well-behaved clients when to come
		// back instead of letting them hammer the admission queue.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	resp := errorResponse{Error: err.Error()}
	var verr *verify.Error
	if errors.As(err, &verr) {
		resp.Diagnostics = verr.Diags
	}
	writeJSON(w, status, resp)
}

// retryAfterSeconds derives the 429 backoff hint from observed load:
// the median completed-run latency times the work queued ahead of a
// retry, spread across the workers.  Floor 1s (the header must be a
// positive integer), cap 60s so a pathological median cannot tell
// clients to go away for minutes.
func (s *Server) retryAfterSeconds() int {
	ps := s.pool.Stats()
	est := s.metrics.MedianRunSeconds() * float64(ps.QueueDepth+ps.InFlight+1) / float64(ps.Workers)
	secs := int(math.Ceil(est))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeJSON(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), v)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.Source == "" {
		s.writeError(w, &httpError{http.StatusBadRequest, "missing source"})
		return
	}
	rq := s.beginRequest("/compile")
	start := time.Now()
	prog, err := s.resolve(r.Context(), rq, "", req.Source, req.Options)
	switch {
	case err == nil:
		s.metrics.Compile(cacheResult(rq.Cached), time.Since(start).Seconds())
	case isVerifyError(err):
		s.metrics.Compile("rejected", time.Since(start).Seconds())
	default:
		s.metrics.Compile("error", 0)
	}
	if err = s.finishRequest(rq, err); err != nil {
		s.writeError(w, err)
		return
	}
	resp := CompileResponse{
		Program:  rq.Program,
		Cached:   rq.Cached,
		Module:   prog.Metrics().Name,
		Cells:    prog.Cells(),
		Skew:     prog.Skew(),
		Template: rq.Template,
	}
	for _, p := range prog.Params() {
		resp.Params = append(resp.Params, ParamJSON{Name: p.Name, Out: p.Out, Size: p.Size})
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolve produces a request's program under its "cache" span — the one
// place /compile, /run and /batch look a program up or compile it.  The
// span says how the cache answered; the phases of a compile this
// request ends up doing are filed under it and feed the compile-phase
// and scheduler metrics; the record takes the content address, whether
// it was resident, and the template detail.
func (s *Server) resolve(ctx context.Context, rq *request, program, source string, o CompileOptions) (*warp.Program, error) {
	span := rq.tr.StartSpan("cache", rq.root)
	defer span.End()
	prog, key, hit, detail, err := s.program(ctx, program, source, o, span)
	if err != nil {
		span.Annotate("error", err.Error())
		return nil, err
	}
	span.Annotate("result", cacheResult(hit))
	rq.Program, rq.Cached, rq.Template = key, hit, detail
	if !hit {
		s.metrics.CompilePhases(prog.Phases())
		s.metrics.CompileSched(prog.Sched().Totals())
	}
	return prog, nil
}

// program finds the program a request names: a content address in
// either cache, source through the right one — bounds requests through
// the template cache (template parsed once, program compiled per bound
// vector), the rest through the compile cache.
func (s *Server) program(ctx context.Context, program, source string, o CompileOptions, parent *obs.Span) (*warp.Program, string, bool, *warp.TemplateDetail, error) {
	switch {
	case program != "" && source != "":
		return nil, "", false, nil, &httpError{http.StatusBadRequest, "give either program or source, not both"}
	case program != "":
		prog, ok := s.cache.Lookup(program)
		if !ok {
			// Programs compiled from templates live in the template cache
			// under their own (template, bounds) content addresses.
			prog, ok = s.templates.Lookup(program)
		}
		if !ok {
			return nil, "", false, nil, &httpError{http.StatusNotFound,
				fmt.Sprintf("unknown or evicted program %q; POST /compile again", program)}
		}
		return prog, program, true, nil, nil
	case source == "":
		return nil, "", false, nil, &httpError{http.StatusBadRequest, "missing program or source"}
	case o.symbolic():
		return s.templates.GetObserved(ctx, source, o.warpOptions(), o.Bounds, parent)
	}
	prog, key, hit, err := s.cache.GetObserved(ctx, source, o.warpOptions(), parent)
	return prog, key, hit, nil, err
}

// runOne serves one run request end to end: resolve (cache), admit
// (pool), execute on one array or a fabric of them (with deadline),
// aggregate (metrics) — with each stage recorded as a span on the
// request's trace.
func (s *Server) runOne(ctx context.Context, endpoint string, req *RunRequest) (resp *RunResponse, err error) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	rq := s.beginRequest(endpoint)
	defer func() { err = s.finishRequest(rq, err) }()
	// died is the outcome of a request whose job never reports one.
	died := &runOutcome{result: "error"}
	if req.Partition != nil {
		died.fabric = &warp.FabricStats{}
	}
	prog, err := s.resolve(ctx, rq, req.Program, req.Source, req.Options)
	if err != nil {
		s.metrics.observe(died)
		return nil, err
	}

	cfg := warp.RunConfig{
		MaxCycles: s.cfg.MaxCycles,
		Profile:   req.Profile,
		Backend:   req.Backend,
		Progress:  rq.publish,
	}
	if req.MaxCycles > 0 {
		cfg.MaxCycles = req.MaxCycles
	}
	stage, run := "run", func(cfg warp.RunConfig) (*runOutcome, error) {
		out, rs, err := prog.RunWith(cfg, req.Inputs)
		return arrayOutcome(out, rs), err
	}
	if p := req.Partition; p != nil {
		// The program is the tile kernel; the farm runs inside one pool
		// slot (its own concurrency is the fabric's array count).
		prob, err := buildProblem(prog, req)
		if err != nil {
			s.metrics.observe(died)
			return nil, err
		}
		cfg.Arrays, cfg.TileRetries = p.Arrays, p.TileRetries
		if cfg.Arrays <= 0 {
			cfg.Arrays = s.cfg.Arrays
		}
		if cfg.TileRetries == 0 {
			cfg.TileRetries = 1
		}
		cfg.TileDeadline = time.Duration(p.TileDeadlineMS) * time.Millisecond
		stage, run = "fabric", func(cfg warp.RunConfig) (*runOutcome, error) {
			out, fs, err := prog.RunPartitioned(cfg, prob)
			return fabricOutcome(out, fs), err
		}
	}

	// The job leaves its outcome in a local; the flight record takes it
	// only once Do has returned the job's own nil, never from a job that
	// outlived its requester's deadline.
	var done *runOutcome
	var started atomic.Bool
	start := time.Now()
	queueSpan := rq.tr.StartSpan("queue-wait", rq.root)
	err = s.pool.Do(ctx, func(ctx context.Context) error {
		started.Store(true)
		s.metrics.QueueWait(time.Since(start).Seconds())
		queueSpan.End() // admitted: the wait is over
		span := rq.tr.StartSpan(stage, rq.root)
		defer span.End()
		if req.Partition != nil {
			span.Annotate("arrays", fmt.Sprint(cfg.Arrays))
		}
		cfg.Context = ctx
		o, err := run(cfg)
		if err == nil {
			err = finiteOutputs(o.outputs)
		}
		_, _, o.result = classify(err)
		o.seconds = time.Since(start).Seconds()
		o.annotate(span, err)
		// A fabric job counts itself however it ended, with the tile
		// attempts it made; a failed single-array run is counted below.
		if err == nil || o.fabric != nil {
			s.metrics.observe(o)
		}
		if err != nil {
			return err
		}
		done = o
		return nil
	})
	// End is idempotent: on the rejected/deadline paths the span is
	// still open and this closes it; on the admitted path it is a no-op.
	queueSpan.End()
	if err != nil {
		// Counted here, unless a fabric job started (it counts itself)
		// and lived to do so.
		if req.Partition == nil || !started.Load() || errors.Is(err, errPanic) {
			_, _, died.result = classify(err)
			s.metrics.observe(died)
		}
		return nil, err
	}
	rq.Cycles, rq.Source, rq.Decision = done.cycles, done.source, done.decision
	return done.response(rq), nil
}

// finiteOutputs refuses outputs a JSON response cannot carry, naming
// the first NaN or infinity in output-name order.
func finiteOutputs(outs map[string][]float64) error {
	for _, name := range outputNames(outs) {
		for i, v := range outs[name] {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return &httpError{http.StatusUnprocessableEntity,
					fmt.Sprintf("output %s[%d] is %v, which a JSON response cannot carry", name, i, v)}
			}
		}
	}
	return nil
}

// buildProblem maps a partitioned request's full-size inputs onto the
// tile kernel's parameters: matmul operands in declaration order, the
// conv1d kernel identified as the parameter sized to the array.
func buildProblem(prog *warp.Program, req *RunRequest) (warp.Problem, error) {
	p := req.Partition
	var ins []warp.ParamInfo
	for _, pi := range prog.Params() {
		if !pi.Out {
			ins = append(ins, pi)
		}
	}
	if len(ins) != 2 {
		return warp.Problem{}, &httpError{http.StatusUnprocessableEntity,
			fmt.Sprintf("partitioning needs a 2-input tile kernel, this one has %d inputs", len(ins))}
	}
	switch p.Workload {
	case "matmul":
		if p.M < 1 || p.K < 1 || p.N < 1 {
			return warp.Problem{}, &httpError{http.StatusBadRequest,
				fmt.Sprintf("matmul partition needs m, k, n >= 1 (got %dx%dx%d)", p.M, p.K, p.N)}
		}
		return warp.MatmulProblem(p.M, p.K, p.N, req.Inputs[ins[0].Name], req.Inputs[ins[1].Name]), nil
	case "conv1d":
		ker, sig := ins[1], ins[0]
		if ker.Size != prog.Cells() {
			ker, sig = ins[0], ins[1]
		}
		if ker.Size != prog.Cells() || sig.Size <= ker.Size {
			return warp.Problem{}, &httpError{http.StatusUnprocessableEntity,
				"conv1d partitioning needs a kernel parameter sized to the array and a longer signal window"}
		}
		return warp.Conv1DProblem(req.Inputs[ker.Name], req.Inputs[sig.Name]), nil
	}
	return warp.Problem{}, &httpError{http.StatusBadRequest,
		fmt.Sprintf("unknown partition workload %q (want matmul or conv1d)", p.Workload)}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := s.decodeRun(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.runOne(r.Context(), "/run", &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Requests) == 0 {
		s.writeError(w, &httpError{http.StatusBadRequest, "empty batch"})
		return
	}
	// Run the batch through the pool from at most Workers + QueueCap
	// goroutines, all the pool can admit at once, each taking the next
	// item; each failure is per-item, not per-batch.
	items := make([]BatchItem, len(req.Requests))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(len(items), max(s.cfg.Workers+s.cfg.QueueCap, 1)) {
		wg.Add(1)
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					wg.Done()
					return
				}
				resp, err := s.runOne(r.Context(), "/batch", &req.Requests[i])
				if err != nil {
					items[i].Error = err.Error()
					continue
				}
				items[i].Result = resp
			}
		}()
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{Results: items})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w, s.cache.Stats(), s.templates.Stats(), s.pool.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Metrics exposes the registry (for the daemon's own logging).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheStats snapshots the compile cache.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// TemplateCacheStats snapshots the template cache.
func (s *Server) TemplateCacheStats() TemplateCacheStats { return s.templates.Stats() }

// PoolStats snapshots the worker pool.
func (s *Server) PoolStats() PoolStats { return s.pool.Stats() }
