package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"warp"
	"warp/internal/obs"
	"warp/internal/service"
)

// reqKind is one distinct request of a service workload: one (program,
// size) key of the server's caches.
type reqKind struct {
	name   string
	class  string  // "concrete", "bounds" or "compile"
	weight float64 // share of the traffic
	path   string  // "/run" or "/compile"
	body   []byte  // the marshalled request
	source string
	opts   service.CompileOptions
	inputs map[string][]float64
	// The references, from set-up: the Go reference output, and the
	// cycle count and microcode size of a direct compile and run.
	want   expectation
	cycles int64
	ucode  int64
}

// serveWorkload is serve-warm or serve-churn: one operation is one POST
// over loopback to an in-process warpd; one unit is one request per
// client, of nproc closed-loop keep-alive clients (callers of a
// synchronous RPC wait for the reply, so there is no arrival schedule).
type serveWorkload struct {
	seed    int64
	churn   bool
	clients int
	kinds   []*reqKind
	srv     *service.Server
	ts      *httptest.Server
	client  *http.Client
}

func newServe(seed int64, churn bool) instance {
	return &serveWorkload{seed: seed, churn: churn, clients: runtime.NumCPU()}
}

func (w *serveWorkload) close() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	closeServer(w.srv, w.ts)
}

func closeServer(srv *service.Server, ts *httptest.Server) {
	if ts != nil {
		ts.Close()
	}
	if srv != nil {
		srv.Close()
	}
}

// config is the server under test: warpd's defaults with one worker
// per core, and for serve-churn caches a fifth the size of the key set.
func (w *serveWorkload) config(flightSize int) service.Config {
	cfg := service.Config{Workers: w.clients, FlightSize: flightSize}
	if w.churn {
		cfg.CacheSize, cfg.TemplatePrograms = 16, 8
	}
	return cfg
}

// compilerOptions is what the server compiles a request with
// (service.Server.options): verification on, one lane per worker.
func (w *serveWorkload) compilerOptions(o service.CompileOptions) warp.Options {
	return warp.Options{NoOptimize: o.NoOptimize, Pipeline: o.Pipeline, Cells: o.Cells,
		Verify: true, CompileWorkers: w.clients}
}

// newServer starts a server; serve-warm's is pre-warmed with one
// request of every kind.
func (w *serveWorkload) newServer(flightSize int) (*service.Server, *httptest.Server, error) {
	srv := service.New(w.config(flightSize))
	ts := httptest.NewServer(srv)
	if !w.churn {
		p := newPass()
		for _, k := range w.kinds {
			w.roundTrip(p, ts.URL, k, nil, nil)
		}
		if p.failed > 0 {
			closeServer(srv, ts)
			return nil, nil, fmt.Errorf("warm-up: %s", strings.Join(p.errs, "; "))
		}
	}
	return srv, ts, nil
}

func (w *serveWorkload) addKind(r *rand.Rand, class, name string, fam family, b bounds, pipeline, symbolic bool) error {
	k := &reqKind{name: name, class: class, path: "/run", opts: service.CompileOptions{Pipeline: pipeline}}
	if class == "compile" {
		k.path = "/compile"
	}
	k.source = fam.concrete(b)
	if symbolic {
		k.source, k.opts.Bounds = fam.sym, b
	}
	var err error
	if k.path == "/run" {
		k.inputs = fam.inputs(r, b)
		k.want = fam.ref(b, k.inputs)
		k.body, err = json.Marshal(service.RunRequest{Source: k.source, Options: k.opts, Inputs: k.inputs})
	} else {
		k.body, err = json.Marshal(service.CompileRequest{Source: k.source, Options: k.opts})
	}
	if err != nil {
		return err
	}
	// The program the server should end up serving, compiled directly.
	prog, err := warp.Compile(fam.concrete(b), w.compilerOptions(k.opts))
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m := prog.Metrics()
	k.ucode = int64(m.CellInstrs + m.IUInstrs)
	if k.path == "/run" {
		_, rs, err := prog.Run(k.inputs)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		k.cycles = rs.Cycles
	}
	w.kinds = append(w.kinds, k)
	return nil
}

func (w *serveWorkload) setup() error {
	r := newRand(w.seed, "serve-inputs")
	matmul, poly, conv := families[0], families[1], families[2]
	type spec struct {
		class    string
		fam      family
		b        bounds
		pipeline bool
	}
	var specs []spec
	if !w.churn {
		specs = []spec{
			{"concrete", poly, bounds{"ncoef": 10, "npoints": 100}, true},
			{"concrete", conv, bounds{"k": 9, "n": 512}, true},
			{"concrete", matmul, bounds{"n": 10}, true},
			{"concrete", matmul, bounds{"n": 32}, true},
			{"bounds", matmul, bounds{"n": 16}, true},
			{"bounds", poly, bounds{"ncoef": 10, "npoints": 400}, true},
		}
	} else {
		// 78 keys, the same for every seed (the seed orders the requests
		// and draws the inputs), so that the cycle and microcode sums
		// over the key set are exact.
		for _, nc := range []int64{6, 8, 10} {
			for _, np := range []int64{100, 200, 300, 400} {
				specs = append(specs, spec{"concrete", poly, bounds{"ncoef": nc, "npoints": np}, true})
			}
		}
		for _, k := range []int64{5, 9} {
			for _, n := range []int64{256, 512, 768, 1024} {
				specs = append(specs, spec{"concrete", conv, bounds{"k": k, "n": n}, true})
			}
		}
		for n := int64(8); n <= 30; n += 2 {
			specs = append(specs, spec{"concrete", matmul, bounds{"n": n}, true})
		}
		for _, fam := range families {
			for _, b := range fam.hot {
				specs = append(specs, spec{"bounds-hot", fam, b, true})
			}
		}
		for _, n := range []int64{5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
			specs = append(specs, spec{"bounds", matmul, bounds{"n": n}, true})
		}
		for i, np := range []int64{90, 170, 250, 330, 410, 490, 570, 650} {
			specs = append(specs, spec{"bounds", poly, bounds{"ncoef": 4 + int64(i%6), "npoints": np}, true})
		}
		for i, n := range []int64{100, 300, 500, 700, 900, 1100, 1300, 1500} {
			specs = append(specs, spec{"bounds", conv, bounds{"k": 3 + int64(i%6), "n": n}, true})
		}
		for _, b := range []bounds{{"ncoef": 10, "npoints": 100}, {"ncoef": 10, "npoints": 200}} {
			specs = append(specs, spec{"compile", poly, b, false})
		}
		for _, b := range []bounds{{"k": 9, "n": 256}, {"k": 9, "n": 512}} {
			specs = append(specs, spec{"compile", conv, b, false})
		}
		for _, n := range []int64{8, 12, 16, 20} {
			specs = append(specs, spec{"compile", matmul, bounds{"n": n}, false})
		}
	}
	// Traffic shares: 45 % concrete runs, 45 % bounds runs (half of them
	// the hot sizes), 10 % compiles; uniform inside each group.  The
	// warm workload draws its six kinds uniformly.
	share := map[string]float64{"concrete": 0.45, "bounds-hot": 0.225, "bounds": 0.225, "compile": 0.10}
	count := map[string]int{}
	for _, s := range specs {
		count[s.class]++
	}
	for _, s := range specs {
		class := strings.TrimSuffix(s.class, "-hot")
		name := fmt.Sprintf("%s/%s(%v)", class, s.fam.name, s.b)
		if err := w.addKind(r, class, name, s.fam, s.b, s.pipeline, class == "bounds"); err != nil {
			return err
		}
		k := w.kinds[len(w.kinds)-1]
		k.weight = 1
		if w.churn {
			k.weight = share[s.class] / float64(count[s.class])
		}
	}
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}}
	var err error
	w.srv, w.ts, err = w.newServer(0)
	return err
}

// stream draws one client's request sequence.  The clients first share
// one pass over every kind in seeded order — a cold server's first
// sight of its key set — and then draw by weight.
func (w *serveWorkload) stream(client, n int) []*reqKind {
	order := newRand(w.seed, "serve-order").Perm(len(w.kinds))
	r := newRand(w.seed, "serve-stream-"+strconv.Itoa(client))
	var total float64
	for _, k := range w.kinds {
		total += k.weight
	}
	out := make([]*reqKind, 0, n)
	for i := client; i < len(order) && len(out) < n; i += w.clients {
		out = append(out, w.kinds[order[i]])
	}
	for len(out) < n {
		x := r.Float64() * total
		pick := w.kinds[len(w.kinds)-1]
		for _, k := range w.kinds {
			if x < k.weight {
				pick = k
				break
			}
			x -= k.weight
		}
		out = append(out, pick)
	}
	return out
}

// row names the latency row of a served request: the kind on
// serve-warm, the class and cache outcome on serve-churn (whose 78
// kinds would make rows of a few samples each).
func (w *serveWorkload) row(k *reqKind, cached bool) string {
	if !w.churn {
		return k.name
	}
	if cached {
		return k.class + "/hit"
	}
	return k.class + "/miss"
}

// roundTrip sends one request and checks the reply against the kind's
// references.  The latency sample ends when the body has been read;
// decoding and checking it is the client's own time.
func (w *serveWorkload) roundTrip(p *pass, url string, k *reqKind, tr *tracer, sizes *[2]int64) {
	root := tr.span("op:POST "+k.path+" "+k.name, nil)
	defer root.End()
	sp := tr.span("http.Client.Post", root)
	start := time.Now()
	resp, err := w.client.Post(url+k.path, "application/json", bytes.NewReader(k.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(start)
	sp.End()
	if err != nil {
		p.sample(w.row(k, false), d)
		p.fail("%s: %v", k.name, err)
		return
	}
	if sizes != nil {
		sizes[0] += int64(len(k.body))
		sizes[1] += int64(len(body))
	}
	if resp.StatusCode != http.StatusOK {
		p.sample(w.row(k, false), d)
		p.fail("%s: status %d: %s", k.name, resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	cached, err := k.checkReply(body)
	p.sample(w.row(k, cached), d)
	if err != nil {
		p.fail("%s: %v", k.name, err)
	}
}

// checkReply compares a 200 body with the kind's references and
// reports whether the server served it from a cache.
func (k *reqKind) checkReply(body []byte) (cached bool, err error) {
	if k.path == "/compile" {
		var resp service.CompileResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return false, err
		}
		if resp.Program == "" || len(resp.Params) == 0 {
			return resp.Cached, fmt.Errorf("compile reply names no program: %s", body)
		}
		return resp.Cached, nil
	}
	var resp service.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, err
	}
	if err := k.want.check(resp.Outputs); err != nil {
		return resp.Cached, err
	}
	if resp.Stats.Cycles != k.cycles {
		return resp.Cached, fmt.Errorf("served %d cycles, a direct compile runs %d", resp.Stats.Cycles, k.cycles)
	}
	return resp.Cached, nil
}

// serveChunks is how many chunks a pass's requests are sent in.  The
// clients meet between chunks, which closes a unit of work: a throughput
// sample, and the moment the host probe runs with the server idle.
const serveChunks = 16

// drive runs the clients, each over its own stream, calling do for
// every request, and returns the merged pass.  tick, when non-nil, runs
// between chunks.
func (w *serveWorkload) drive(units int, tick func(), do func(p *pass, k *reqKind)) *pass {
	streams := make([][]*reqKind, w.clients)
	for c := range streams {
		streams[c] = w.stream(c, units)
	}
	out := newPass()
	for chunk := 0; chunk < serveChunks; chunk++ {
		lo, hi := units*chunk/serveChunks, units*(chunk+1)/serveChunks
		if lo == hi {
			continue
		}
		passes := make([]*pass, w.clients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := range streams {
			passes[c] = newPass()
			wg.Add(1)
			go func(p *pass, stream []*reqKind) {
				defer wg.Done()
				for _, k := range stream {
					do(p, k)
				}
			}(passes[c], streams[c][lo:hi])
		}
		wg.Wait()
		wall := time.Since(start)
		for _, p := range passes {
			out.merge(p)
		}
		out.unit((hi-lo)*w.clients, wall)
		if tick != nil {
			tick()
		}
	}
	// The exact sums run over the distinct kinds requested, whoever
	// requested them and however often.
	seen := map[*reqKind]bool{}
	for _, stream := range streams {
		for _, k := range stream {
			if !seen[k] {
				seen[k] = true
				out.simCycles += k.cycles
				out.ucodeWords += k.ucode
			}
		}
	}
	out.makespanCycles = out.simCycles // one array per run
	return out
}

func (w *serveWorkload) measure(units int, tick func()) *pass {
	return w.drive(units, tick, func(p *pass, k *reqKind) { w.roundTrip(p, w.ts.URL, k, nil, nil) })
}

// fresh returns the server a side measurement should use: the set-up's
// own on serve-warm (it stays warm), a new cold one on serve-churn.
func (w *serveWorkload) fresh(flightSize int) (*service.Server, *httptest.Server, func(), error) {
	if !w.churn && flightSize == 0 {
		return w.srv, w.ts, func() {}, nil
	}
	srv, ts, err := w.newServer(flightSize)
	return srv, ts, func() { closeServer(srv, ts) }, err
}

func (w *serveWorkload) trace(units int, tr *tracer, tick func()) (*pass, layers) {
	l := layers{}

	// Level 1: the loopback round trip, as the untraced pass, with spans.
	srv, ts, done, err := w.fresh(0)
	if err != nil {
		p := newPass()
		p.fail("%v", err)
		return p, l
	}
	var mu sync.Mutex
	var sizes [2]int64
	p := w.drive(units, tick, func(p *pass, k *reqKind) {
		var s [2]int64
		w.roundTrip(p, ts.URL, k, tr, &s)
		mu.Lock()
		sizes[0], sizes[1] = sizes[0]+s[0], sizes[1]+s[1]
		mu.Unlock()
	})
	requests := float64(p.attempted)
	roundTripUS := mean(p.samples()) * 1e3
	l["service.bytes_in_per_req"] = float64(sizes[0]) / requests
	l["service.bytes_out_per_req"] = float64(sizes[1]) / requests
	w.snapshots(l, srv, ts)
	done()

	// Level 2: the handler alone, called directly.
	srv, _, done, err = w.fresh(0)
	if err != nil {
		p.fail("%v", err)
		return p, l
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	handler := w.drive(units, nil, func(hp *pass, k *reqKind) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, k.path, bytes.NewReader(k.body))
		d := tr.timed("service.Server.ServeHTTP", nil, func(*obs.Span) { srv.ServeHTTP(rec, req) })
		hp.sample("handler", d)
		if rec.Code != http.StatusOK {
			hp.fail("%s: handler status %d", k.name, rec.Code)
		}
	})
	runtime.ReadMemStats(&mem1)
	done()
	p.failed += handler.failed
	p.errs = append(p.errs, handler.errs...)
	handlerUS := mean(handler.samples()) * 1e3
	l["service.handler_us"] = handlerUS
	l["service.transport_us"] = roundTripUS - handlerUS
	l["service.mallocs_per_req"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(handler.attempted)

	// Level 3: the handler's parts, on caches and a pool of the server's
	// own types and sizes.
	parts := w.parts(units, tr, p)
	l["service.decode_us"] = mean(parts.rows["decode"]) * 1e3
	l["service.encode_us"] = mean(parts.rows["encode"]) * 1e3
	l["service.pool_run_us"] = mean(parts.rows["pool_run"]) * 1e3
	l["service.glue_us"] = handlerUS - us(parts.total)/float64(handler.attempted)
	l["service.cache_hit_us"] = median(parts.rows["cache/hit"]) * 1e3
	l["service.cache_miss_ms"] = median(parts.rows["cache/miss"])
	l["service.template_hit_us"] = median(parts.rows["template/hit"]) * 1e3
	l["service.template_miss_ms"] = median(parts.rows["template/miss"])

	// The flight recorder's cost: the same traffic with it on (the
	// default) and off.
	var rates [2]float64
	for i, flightSize := range []int{0, -1} {
		_, ts, done, err := w.fresh(flightSize)
		if err != nil {
			p.fail("%v", err)
			return p, l
		}
		fp := w.drive(units, nil, func(p *pass, k *reqKind) { w.roundTrip(p, ts.URL, k, nil, nil) })
		done()
		rates[i] = fp.opsPerS()
	}
	if rates[1] > 0 {
		l["service.flight_overhead_ratio"] = rates[0] / rates[1]
	}
	return p, l
}

// partTimes collects level 3's samples: the rows are the parts (the
// lookups split by cache and outcome), total is their sum.  The levels
// are subtracted from one another as means per request: means, unlike
// medians, add up.
type partTimes struct {
	mu    sync.Mutex
	rows  map[string][]float64 // ms
	total time.Duration
}

func (t *partTimes) add(name string, d time.Duration) {
	t.mu.Lock()
	t.rows[name] = append(t.rows[name], ms(d))
	t.total += d
	t.mu.Unlock()
}

// parts replays the handler's work through the public pieces it is
// made of: json.Unmarshal of the request, Cache.Get or
// TemplateCache.GetObserved, Pool.Do around Program.RunWith, and
// json.Marshal of the response.
func (w *serveWorkload) parts(units int, tr *tracer, p *pass) *partTimes {
	cfg := w.config(0)
	if cfg.CacheSize == 0 {
		cfg.CacheSize, cfg.TemplatePrograms = 128, 64 // service.New's defaults
	}
	cache := service.NewCache(cfg.CacheSize, nil)
	templates := service.NewTemplateCache(cfg.CacheSize, cfg.TemplatePrograms, nil)
	pool := service.NewPool(cfg.Workers, 64)
	defer pool.Close()
	ctx := context.Background()
	times := &partTimes{rows: map[string][]float64{}}

	resolve := func(root *obs.Span, o service.CompileOptions, src string) (*warp.Program, string, bool, error) {
		var prog *warp.Program
		var key string
		var hit bool
		var err error
		if len(o.Bounds) > 0 {
			d := tr.timed("service.TemplateCache.GetObserved", root, func(*obs.Span) {
				prog, key, hit, _, err = templates.GetObserved(ctx, src, w.compilerOptions(o), o.Bounds, nil)
			})
			times.add("template/"+hitMiss(hit), d)
			return prog, key, hit, err
		}
		d := tr.timed("service.Cache.Get", root, func(*obs.Span) {
			prog, key, hit, err = cache.Get(ctx, src, w.compilerOptions(o))
		})
		times.add("cache/"+hitMiss(hit), d)
		return prog, key, hit, err
	}

	if !w.churn {
		for _, k := range w.kinds { // pre-warm, as the server was
			if _, _, _, err := resolve(nil, k.opts, k.source); err != nil {
				p.fail("%s: %v", k.name, err)
			}
		}
		times.rows, times.total = map[string][]float64{}, 0
	}

	w.drive(units, nil, func(_ *pass, k *reqKind) {
		root := tr.span("op:parts "+k.path+" "+k.name, nil)
		defer root.End()
		if k.path == "/compile" {
			var req service.CompileRequest
			times.add("decode", tr.timed("json.Unmarshal", root, func(*obs.Span) { _ = json.Unmarshal(k.body, &req) }))
			prog, key, hit, err := resolve(root, req.Options, req.Source)
			if err != nil {
				p.fail("%s: %v", k.name, err)
				return
			}
			resp := service.CompileResponse{Program: key, Cached: hit, Module: prog.Metrics().Name, Cells: prog.Cells(), Skew: prog.Skew()}
			times.add("encode", tr.timed("json.Marshal", root, func(*obs.Span) { _, _ = json.Marshal(resp) }))
			return
		}
		var req service.RunRequest
		times.add("decode", tr.timed("json.Unmarshal", root, func(*obs.Span) { _ = json.Unmarshal(k.body, &req) }))
		prog, key, hit, err := resolve(root, req.Options, req.Source)
		if err != nil {
			p.fail("%s: %v", k.name, err)
			return
		}
		var resp service.RunResponse
		times.add("pool_run", tr.timed("service.Pool.Do", root, func(*obs.Span) {
			err = pool.Do(ctx, func(ctx context.Context) error {
				out, rs, err := prog.RunWith(warp.RunConfig{Context: ctx, Backend: req.Backend}, req.Inputs)
				if err != nil {
					return err
				}
				resp = service.RunResponse{Program: key, Cached: hit, Outputs: out, Decision: rs.Decision,
					Stats: service.RunStatsJSON{Cycles: rs.Cycles, Backend: rs.Backend, MaxQueue: rs.MaxQueue,
						MaxQueueAt: rs.MaxQueueAt, AddUtilization: rs.AddUtilization, MulUtilization: rs.MulUtilization}}
				return nil
			})
		}))
		if err != nil {
			p.fail("%s: %v", k.name, err)
			return
		}
		times.add("encode", tr.timed("json.Marshal", root, func(*obs.Span) { _, _ = json.Marshal(resp) }))
	})
	return times
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// snapshots reads the server's public counters after a pass: the cache
// and pool snapshots and GET /metrics.
func (w *serveWorkload) snapshots(l layers, srv *service.Server, ts *httptest.Server) {
	cs, tcs, ps := srv.CacheStats(), srv.TemplateCacheStats(), srv.PoolStats()
	if n := cs.Hits + cs.Misses; n > 0 {
		l["service.cache_hit_ratio"] = float64(cs.Hits) / float64(n)
	}
	if n := tcs.Hits + tcs.Misses; n > 0 {
		l["service.template_hit_ratio"] = float64(tcs.Hits) / float64(n)
	}
	l["service.cache_evictions"] = float64(cs.Evictions + tcs.Evictions)
	l["service.template_fallbacks"] = float64(tcs.Fallbacks)
	l["service.rejected_429"] = float64(ps.Rejected)

	resp, err := w.client.Get(ts.URL + "/metrics")
	if err != nil {
		return
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var fast, runs, waitSum, waitCount float64
	var bounds, cum []float64 // queue-wait histogram: upper bounds and cumulative counts
	for _, line := range strings.Split(string(text), "\n") {
		name, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "warpd_backend_runs_total{"):
			runs += v
			if strings.Contains(name, `"fast"`) {
				fast += v
			}
		case name == "warpd_queue_wait_seconds_sum":
			waitSum = v
		case name == "warpd_queue_wait_seconds_count":
			waitCount = v
		case strings.HasPrefix(name, `warpd_queue_wait_seconds_bucket{le="`):
			le := strings.TrimSuffix(strings.TrimPrefix(name, `warpd_queue_wait_seconds_bucket{le="`), `"}`)
			if b, err := strconv.ParseFloat(le, 64); err == nil { // skips +Inf
				bounds, cum = append(bounds, b), append(cum, v)
			}
		}
	}
	if runs > 0 {
		l["service.backend_fast_ratio"] = fast / runs
	}
	if waitCount > 0 {
		l["service.queue_wait_mean_us"] = waitSum / waitCount * 1e6
		// The p99's bucket: the histogram's first bound is 100 µs, so a
		// wait below that reads as 100.
		for i, c := range cum {
			if c >= 0.99*waitCount {
				l["service.queue_wait_p99_us"] = bounds[i] * 1e6
				break
			}
		}
	}
}
