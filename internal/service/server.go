package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
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
	// MaxCycles is the per-run livelock guard (0 keeps the simulator
	// default of 1<<28).
	MaxCycles int64
	// Arrays is the default fabric width for partitioned run requests
	// that name no arrays count of their own (default 2).
	Arrays int
	// MaxBodyBytes bounds a request body (default 8 MiB).
	MaxBodyBytes int64
	// NoVerify disables the static microcode verifier.  By default the
	// service refuses to serve a program it cannot prove safe: every
	// compilation runs the verifier, and a violation is returned as 422
	// with one structured diagnostic per violated invariant.
	NoVerify bool
	// CompileWorkers bounds each compilation's internal parallelism
	// (warp.Options.CompileWorkers).  It is a server policy, not a wire
	// option: the compiled program is byte-identical at any setting, so
	// clients have no say and the cache key ignores it.  0 defaults to
	// GOMAXPROCS capped at Workers, so one compiling request cannot
	// out-schedule the whole simulation pool; negative forces serial.
	CompileWorkers int
	// Compile substitutes the compiler entry point (nil = warp.Compile);
	// tests use it to instrument driver invocations.
	Compile CompileFunc
	// CompileTemplate substitutes the symbolic template entry point
	// (nil = warp.CompileTemplate); tests use it to count template
	// builds behind the template cache.
	CompileTemplate TemplateCompileFunc
	// TemplatePrograms caps how many instantiated programs each
	// resident template keeps (default 64); the template count itself
	// is bounded by CacheSize.
	TemplatePrograms int
	// Logger receives one structured record per served request (ID,
	// outcome, span durations).  nil discards.
	Logger *slog.Logger
	// FlightSize is how many recent requests the flight recorder keeps
	// for GET /debug/requests (default 64; negative disables per-request
	// tracing entirely).
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
	flight    *flightRecorder
	progress  *progressHub
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
	if cfg.CompileWorkers == 0 {
		cfg.CompileWorkers = runtime.GOMAXPROCS(0)
		if cfg.CompileWorkers > cfg.Workers {
			cfg.CompileWorkers = cfg.Workers
		}
	}
	if cfg.CompileWorkers < 1 {
		cfg.CompileWorkers = 1
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
		templates: NewTemplateCache(cfg.CacheSize, cfg.TemplatePrograms, cfg.CompileTemplate),
		pool:      NewPool(cfg.Workers, cfg.QueueCap),
		metrics:   NewMetrics(),
		cfg:       cfg,
		mux:       http.NewServeMux(),
		log:       logger,
		flight:    newFlightRecorder(cfg.FlightSize),
		progress:  newProgressHub(cfg.FlightSize),
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
	// Symbolic compiles the source as a ${...} template through the
	// template cache: the first request per (source, options) pays the
	// probe compiles, later bound vectors instantiate in microseconds.
	// Bounds gives the template parameter values (e.g. {"n": 32});
	// non-empty Bounds implies Symbolic.
	Symbolic bool             `json:"symbolic,omitempty"`
	Bounds   map[string]int64 `json:"bounds,omitempty"`
}

// symbolic reports whether the request asked for the template path.
func (o CompileOptions) symbolic() bool { return o.Symbolic || len(o.Bounds) > 0 }

func (o CompileOptions) warpOptions() warp.Options {
	return warp.Options{NoOptimize: o.NoOptimize, Pipeline: o.Pipeline, Cells: o.Cells}
}

// options maps wire options to compiler options under the server's
// verification policy (verify unless configured off) and compile
// parallelism policy.
func (s *Server) options(o CompileOptions) warp.Options {
	opts := o.warpOptions()
	opts.Verify = !s.cfg.NoVerify
	opts.CompileWorkers = s.cfg.CompileWorkers
	return opts
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
// calls, plus the compiler metrics.  Template reports how a symbolic
// request was served (closed-form instantiation or concrete fallback,
// and which residue class).
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
	// verified programs on the fast dataflow executor and everything
	// else on the cycle-accurate simulator; "sim" forces simulation;
	// "fast" demands the fast executor and fails with 422 when the
	// program is not verified (e.g. the server runs with -no-verify) —
	// there is no silent fallback.
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

// RunStatsJSON is the wire form of the run statistics.
type RunStatsJSON struct {
	Cycles         int64   `json:"cycles"`
	Backend        string  `json:"backend,omitempty"`
	MaxQueue       int     `json:"max_queue"`
	MaxQueueAt     string  `json:"max_queue_at,omitempty"`
	AddUtilization float64 `json:"add_utilization"`
	MulUtilization float64 `json:"mul_utilization"`
}

// RunResponse carries the outputs and statistics of one run.  Fabric
// is set only for partitioned runs; Request names the flight record a
// profiled run's download URL is built from; Decision is the backend
// decision audit — which executor ran the program, why, and the cost
// model's predicted wall times beside the measured one.
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
	// Hint tells the client how to make the request processable, e.g.
	// how to satisfy a "backend":"fast" demand on an unverified program.
	Hint string `json:"hint,omitempty"`
}

// httpError is an error carrying its HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errStatus(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is moot but 499-style
		// accounting keeps logs honest (no stdlib constant exists).
		return 499
	case errors.Is(err, warp.ErrLivelock):
		return http.StatusUnprocessableEntity
	case errors.Is(err, warp.ErrUnverified):
		// The request demanded the fast backend for a program the
		// server cannot prove safe; refusing beats silently running the
		// simulator instead.
		return http.StatusUnprocessableEntity
	case isVerifyError(err):
		// The source compiled but the microcode failed verification:
		// the entity is well-formed yet unprocessable as a program.
		return http.StatusUnprocessableEntity
	case errors.Is(err, errLoadPanic):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// isVerifyError reports whether err is a static-verification rejection.
func isVerifyError(err error) bool {
	var verr *verify.Error
	return errors.As(err, &verr)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := errStatus(err)
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
	if errors.Is(err, warp.ErrUnverified) {
		resp.Hint = `the fast backend runs only verified programs; restart the server without -no-verify, or use "backend":"sim"`
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
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &httpError{status: http.StatusBadRequest, msg: "bad request body: " + err.Error()}
	}
	return nil
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
	rc := s.beginRequest("/compile")
	start := time.Now()
	cacheSpan := rc.tr.StartSpan("cache", rc.root)
	prog, key, hit, detail, err := s.getProgram(r.Context(), req.Source, req.Options, cacheSpan)
	if err != nil {
		cacheSpan.Annotate("error", err.Error())
		cacheSpan.End()
		if isVerifyError(err) {
			s.metrics.Compile("rejected", time.Since(start).Seconds())
		} else {
			s.metrics.Compile("error", 0)
		}
		s.finishRequest(rc, err)
		s.writeError(w, err)
		return
	}
	cacheSpan.Annotate("result", cacheResult(hit))
	if detail != nil {
		annotateTemplate(cacheSpan, detail)
	}
	cacheSpan.End()
	rc.Program, rc.Cached, rc.Template = key, hit, detail
	s.metrics.Compile(cacheResult(hit), time.Since(start).Seconds())
	if !hit {
		s.metrics.CompilePhases(prog.Phases())
		s.metrics.CompileSched(prog.Sched().Totals())
	}
	s.finishRequest(rc, nil)
	resp := CompileResponse{
		Program:  key,
		Cached:   hit,
		Module:   prog.Metrics().Name,
		Cells:    prog.Cells(),
		Skew:     prog.Skew(),
		Template: detail,
	}
	for _, p := range prog.Params() {
		resp.Params = append(resp.Params, ParamJSON{Name: p.Name, Out: p.Out, Size: p.Size})
	}
	writeJSON(w, http.StatusOK, resp)
}

// getProgram resolves (source, options) through the right cache:
// symbolic requests go through the template cache (template compiled
// once, program instantiated per bound vector), everything else
// through the plain compile cache.  The phases of a compile or
// instantiation this request does are filed under parent.
func (s *Server) getProgram(ctx context.Context, src string, o CompileOptions, parent *obs.Span) (*warp.Program, string, bool, *warp.TemplateDetail, error) {
	if o.symbolic() {
		return s.templates.GetObserved(ctx, src, s.options(o), o.Bounds, parent)
	}
	prog, key, hit, err := s.cache.GetObserved(ctx, src, s.options(o), parent)
	return prog, key, hit, nil, err
}

// annotateTemplate stamps how a symbolic request was served onto its
// cache span, so request traces tell instantiations from fallbacks.
func annotateTemplate(sp *obs.Span, d *warp.TemplateDetail) {
	sp.Annotate("symbolic", fmt.Sprint(d.Symbolic))
	if d.Class != "" {
		sp.Annotate("class", d.Class)
	}
	if d.FallbackReason != "" {
		sp.Annotate("fallback_reason", d.FallbackReason)
	}
}

// resolve produces the program for a run request, through the cache.
// Compile phases are filed under parent if this request ends up compiling.
func (s *Server) resolve(ctx context.Context, req *RunRequest, parent *obs.Span) (*warp.Program, string, bool, *warp.TemplateDetail, error) {
	switch {
	case req.Program != "" && req.Source != "":
		return nil, "", false, nil, &httpError{http.StatusBadRequest, "give either program or source, not both"}
	case req.Program != "":
		prog, ok := s.cache.Lookup(req.Program)
		if !ok {
			// Instantiated programs live in the template cache under
			// their own (template, bounds) content addresses.
			prog, ok = s.templates.Lookup(req.Program)
		}
		if !ok {
			return nil, "", false, nil, &httpError{http.StatusNotFound,
				fmt.Sprintf("unknown or evicted program %q; POST /compile again", req.Program)}
		}
		return prog, req.Program, true, nil, nil
	case req.Source != "":
		return s.getProgram(ctx, req.Source, req.Options, parent)
	}
	return nil, "", false, nil, &httpError{http.StatusBadRequest, "missing program or source"}
}

// runOne serves one run request end to end: resolve (cache), admit
// (pool), simulate (with deadline), aggregate (metrics) — with each
// stage recorded as a span on the request's trace.
func (s *Server) runOne(ctx context.Context, endpoint string, req *RunRequest) (*RunResponse, error) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	rc := s.beginRequest(endpoint)
	ent := s.progress.register(rc.ID)
	// Whatever path the request dies on, the progress stream must end
	// with a terminal event (a no-op when the run delivered its own).
	defer ent.finish()
	cacheSpan := rc.tr.StartSpan("cache", rc.root)
	prog, key, hit, detail, err := s.resolve(ctx, req, cacheSpan)
	if err != nil {
		cacheSpan.Annotate("error", err.Error())
		cacheSpan.End()
		s.metrics.Run("error", "", 0, obsSummaryZero)
		s.finishRequest(rc, err)
		return nil, err
	}
	cacheSpan.Annotate("result", cacheResult(hit))
	if detail != nil {
		annotateTemplate(cacheSpan, detail)
	}
	cacheSpan.End()
	rc.Program, rc.Cached, rc.Template = key, hit, detail
	if !hit {
		s.metrics.CompilePhases(prog.Phases())
		s.metrics.CompileSched(prog.Sched().Totals())
	}

	maxCycles := s.cfg.MaxCycles
	if req.MaxCycles > 0 {
		maxCycles = req.MaxCycles
	}
	if req.Partition != nil {
		return s.runPartitioned(ctx, rc, ent, req, prog, key, hit, maxCycles)
	}

	// The job leaves its results in locals; the flight record takes them
	// only once Do has returned the job's own nil, never from a job that
	// outlived its requester's deadline.
	var resp *RunResponse
	var source *warp.SourceProfile
	start := time.Now()
	queueSpan := rc.tr.StartSpan("queue-wait", rc.root)
	err = s.pool.Do(ctx, func(ctx context.Context) error {
		s.metrics.QueueWait(time.Since(start).Seconds())
		queueSpan.End() // admitted: the wait is over
		runSpan := rc.tr.StartSpan("run", rc.root)
		defer runSpan.End()
		out, rs, err := prog.RunWith(warp.RunConfig{
			Context:   ctx,
			MaxCycles: maxCycles,
			Profile:   req.Profile,
			Backend:   req.Backend,
			Progress:  ent.publish,
		}, req.Inputs)
		if err != nil {
			runSpan.Annotate("error", err.Error())
			return err
		}
		runSpan.Annotate("backend", rs.Backend)
		annotateDecision(runSpan, rs.Decision)
		sum := rs.Profile.Summarize()
		runSpan.AttachSummary(sum)
		source = rs.Source
		resp = &RunResponse{
			Program:  key,
			Cached:   hit,
			Outputs:  out,
			Request:  rc.ID,
			Decision: rs.Decision,
			Stats: RunStatsJSON{
				Cycles:         rs.Cycles,
				Backend:        rs.Backend,
				MaxQueue:       rs.MaxQueue,
				MaxQueueAt:     rs.MaxQueueAt,
				AddUtilization: rs.AddUtilization,
				MulUtilization: rs.MulUtilization,
			},
		}
		s.metrics.Run("ok", rs.Backend, time.Since(start).Seconds(), sum)
		s.metrics.Backend(rs.Backend)
		s.metrics.Decision(rs.Decision)
		return nil
	})
	// End is idempotent: on the rejected/deadline paths the span is
	// still open and this closes it; on the admitted path it is a no-op.
	queueSpan.End()
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.metrics.Run("timeout", "", 0, obsSummaryZero)
		case errors.Is(err, ErrBusy):
			s.metrics.Run("rejected", "", 0, obsSummaryZero)
		default:
			s.metrics.Run("error", "", 0, obsSummaryZero)
		}
		s.finishRequest(rc, err)
		return nil, err
	}
	rc.Cycles, rc.Source, rc.Decision = resp.Stats.Cycles, source, resp.Decision
	s.finishRequest(rc, nil)
	return resp, nil
}

// annotateDecision stamps the backend decision audit onto the run span
// so the flight recorder's trace carries the predicted-vs-actual story.
func annotateDecision(sp *obs.Span, d *warp.Decision) {
	if d == nil {
		return
	}
	sp.Annotate("decision", d.Reason)
	sp.Annotate("predicted_wall_ns", fmt.Sprint(d.PredictedWallNS()))
	sp.Annotate("actual_wall_ns", fmt.Sprint(d.ActualWallNS))
	if f := d.ErrorFactor(); f > 0 {
		sp.Annotate("prediction_error", fmt.Sprintf("%.2f", f))
	}
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

// runPartitioned is runOne's tail for partition requests: the resolved
// program becomes the tile kernel and the farm runs inside one pool
// slot (its internal concurrency is the fabric's own array count).
func (s *Server) runPartitioned(ctx context.Context, rc *requestCtx, ent *progressEntry, req *RunRequest, prog *warp.Program, key string, hit bool, maxCycles int64) (*RunResponse, error) {
	arrays := req.Partition.Arrays
	if arrays <= 0 {
		arrays = s.cfg.Arrays
	}
	retries := req.Partition.TileRetries
	if retries == 0 {
		retries = 1
	}
	prob, err := buildProblem(prog, req)
	if err != nil {
		s.metrics.Fabric("error", "", 0, 0, 0, 0, 0, 0)
		s.finishRequest(rc, err)
		return nil, err
	}

	var resp *RunResponse
	var source *warp.SourceProfile
	start := time.Now()
	queueSpan := rc.tr.StartSpan("queue-wait", rc.root)
	err = s.pool.Do(ctx, func(ctx context.Context) error {
		s.metrics.QueueWait(time.Since(start).Seconds())
		queueSpan.End()
		runSpan := rc.tr.StartSpan("fabric", rc.root)
		defer runSpan.End()
		runSpan.Annotate("arrays", fmt.Sprint(arrays))
		out, fs, err := prog.RunPartitioned(warp.RunConfig{
			Context:      ctx,
			MaxCycles:    maxCycles,
			Arrays:       arrays,
			TileRetries:  retries,
			TileDeadline: time.Duration(req.Partition.TileDeadlineMS) * time.Millisecond,
			Profile:      req.Profile,
			Backend:      req.Backend,
			Progress:     ent.publish,
		}, prob)
		if fs != nil {
			runSpan.Annotate("tiles", fmt.Sprint(fs.Tiles))
		}
		if err != nil {
			runSpan.Annotate("error", err.Error())
			result := "error"
			if errors.Is(err, context.DeadlineExceeded) {
				result = "timeout"
			}
			if fs != nil {
				s.metrics.Fabric(result, fs.Backend, 0, fs.Tiles, fs.Dispatched, fs.Retried, fs.Failed, fs.AggregateCycles)
			} else {
				s.metrics.Fabric(result, "", 0, 0, 0, 0, 0, 0)
			}
			return err
		}
		runSpan.Annotate("backend", fs.Backend)
		annotateDecision(runSpan, fs.Decision)
		source = fs.Source
		resp = &RunResponse{
			Program:  key,
			Cached:   hit,
			Outputs:  out,
			Request:  rc.ID,
			Decision: fs.Decision,
			Stats: RunStatsJSON{
				Cycles:         fs.MakespanCycles,
				Backend:        fs.Backend,
				MaxQueue:       fs.PeakQueue,
				MaxQueueAt:     fs.PeakQueueAt,
				AddUtilization: fs.AddUtil,
				MulUtilization: fs.MulUtil,
			},
			Fabric: &FabricJSON{
				Tiles:           fs.Tiles,
				Arrays:          fs.Arrays,
				Dispatched:      fs.Dispatched,
				Retried:         fs.Retried,
				Failed:          fs.Failed,
				AggregateCycles: fs.AggregateCycles,
				MakespanCycles:  fs.MakespanCycles,
				Speedup:         fs.Speedup,
				StagedWords:     fs.StagedWords,
			},
		}
		s.metrics.Fabric("ok", fs.Backend, time.Since(start).Seconds(), fs.Tiles, fs.Dispatched, fs.Retried, fs.Failed, fs.AggregateCycles)
		s.metrics.Backend(fs.Backend)
		s.metrics.Decision(fs.Decision)
		return nil
	})
	queueSpan.End()
	if err != nil {
		if errors.Is(err, ErrBusy) {
			s.metrics.Fabric("rejected", "", 0, 0, 0, 0, 0, 0)
		}
		s.finishRequest(rc, err)
		return nil, err
	}
	rc.Cycles, rc.Source, rc.Decision = resp.Fabric.AggregateCycles, source, resp.Decision
	s.finishRequest(rc, nil)
	return resp, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := s.decode(w, r, &req); err != nil {
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
	// Fan the batch out through the pool: items run concurrently up to
	// the worker count, and each failure is per-item, not per-batch.
	items := make([]BatchItem, len(req.Requests))
	done := make(chan int, len(req.Requests))
	for i := range req.Requests {
		go func(i int) {
			defer func() { done <- i }()
			resp, err := s.runOne(r.Context(), "/batch", &req.Requests[i])
			if err != nil {
				items[i].Error = err.Error()
				return
			}
			items[i].Result = resp
		}(i)
	}
	for range req.Requests {
		<-done
	}
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

// TemplateCacheStats snapshots the symbolic template cache.
func (s *Server) TemplateCacheStats() TemplateCacheStats { return s.templates.Stats() }

// PoolStats snapshots the worker pool.
func (s *Server) PoolStats() PoolStats { return s.pool.Stats() }
