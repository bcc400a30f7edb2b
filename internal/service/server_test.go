package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warp"
	"warp/internal/workloads"
)

// e2eProgram is one of the distinct workloads the end-to-end test
// submits.
type e2eProgram struct {
	name   string
	src    string
	inputs map[string][]float64
	want   map[string][]float64 // from direct Program.Run
}

// buildPrograms compiles the three distinct W2 programs directly (no
// service) and captures the ground-truth outputs.
func buildPrograms(t *testing.T) []*e2eProgram {
	t.Helper()
	progs := []*e2eProgram{
		{name: "polynomial", src: workloads.Polynomial(10, 100)},
		{name: "conv1d", src: workloads.Conv1D(9, 128)},
		{name: "matmul", src: workloads.Matmul(8)},
	}
	for _, p := range progs {
		compiled, err := warp.Compile(p.src, warp.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		p.inputs = map[string][]float64{}
		for i, param := range compiled.Params() {
			if param.Out {
				continue
			}
			arr := make([]float64, param.Size)
			for j := range arr {
				arr[j] = float64((i+1)*(j%13)) / 8
			}
			p.inputs[param.Name] = arr
		}
		out, _, err := compiled.Run(p.inputs)
		if err != nil {
			t.Fatalf("%s: direct run: %v", p.name, err)
		}
		p.want = out
	}
	return progs
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestServiceEndToEnd drives the acceptance scenario: 16 concurrent
// clients over 3 distinct programs get outputs identical to direct
// Program.Run, the cache absorbs all repeats (>= 13 hits), a 1ms
// deadline times out without wedging a worker, and /metrics is valid
// Prometheus text exposing the compile/run counters.
func TestServiceEndToEnd(t *testing.T) {
	progs := buildPrograms(t)
	svc := New(Config{Workers: 4, QueueCap: 64, CacheSize: 16})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := progs[i%len(progs)]
			resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{
				Source: p.src,
				Inputs: p.inputs,
			})
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("client %d (%s): status %d: %s", i, p.name, resp.StatusCode, body)
				return
			}
			var rr RunResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				errs[i] = fmt.Errorf("client %d: %v", i, err)
				return
			}
			for name, want := range p.want {
				got := rr.Outputs[name]
				if len(got) != len(want) {
					errs[i] = fmt.Errorf("client %d (%s): %s has %d values, want %d", i, p.name, name, len(got), len(want))
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errs[i] = fmt.Errorf("client %d (%s): %s[%d] = %v, direct Run says %v",
							i, p.name, name, j, got[j], want[j])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	cs := svc.CacheStats()
	if cs.Misses != int64(len(progs)) {
		t.Errorf("cache misses = %d, want %d (one per distinct program)", cs.Misses, len(progs))
	}
	if cs.Hits < clients-int64(len(progs)) {
		t.Errorf("cache hits = %d, want >= %d", cs.Hits, clients-len(progs))
	}

	// A 1ms deadline on a simulation sized to far outrun it must come
	// back as a timeout — and must not wedge the worker that ran it.
	// n=20000 simulates for ~hundreds of milliseconds, far beyond the
	// deadline even with coarse timer delivery.
	big := workloads.Polynomial(10, 20000)
	resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{Source: big})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile big: status %d: %s", resp.StatusCode, body)
	}
	var cr CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	bigProg, err := warp.Compile(big, warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bigInputs := map[string][]float64{}
	for _, param := range bigProg.Params() {
		if !param.Out {
			bigInputs[param.Name] = make([]float64, param.Size)
		}
	}
	resp, body = postJSON(t, client, ts.URL+"/run", RunRequest{
		Program:   cr.Program,
		Inputs:    bigInputs,
		TimeoutMS: 1,
		// Slow the clock the only way a simulator can be slowed from
		// outside: nothing — instead rely on the deadline landing
		// before or during the run; either path must map to 504.
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ms deadline: status %d (%s), want 504", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("timeout body does not mention the deadline: %s", body)
	}

	// The pool must still serve promptly after the timeout.
	p := progs[0]
	resp, body = postJSON(t, client, ts.URL+"/run", RunRequest{Source: p.src, Inputs: p.inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after timeout: status %d: %s", resp.StatusCode, body)
	}

	// Scrape /metrics and validate the exposition format.
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(mbody)
	validatePrometheus(t, text)
	for _, want := range []string{
		`warpd_compile_requests_total{result="miss"}`,
		`warpd_run_requests_total{result="ok"}`,
		`warpd_run_requests_total{result="timeout"}`,
		"warpd_compile_seconds_bucket",
		"warpd_run_seconds_sum",
		"warpd_cache_hits_total",
		"warpd_sim_cycles_total",
		"warpd_fpu_add_utilization_sum",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

var (
	promSample  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$`)
	promComment = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
)

// validatePrometheus checks every line of the text exposition format
// and that each sample's metric family has a preceding # TYPE.
func validatePrometheus(t *testing.T, text string) {
	t.Helper()
	typed := map[string]bool{}
	for n, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !promComment.MatchString(line) {
				t.Errorf("metrics line %d: malformed comment: %q", n+1, line)
			}
			if fields := strings.Fields(line); len(fields) >= 3 && fields[1] == "TYPE" {
				typed[fields[2]] = true
			}
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("metrics line %d: malformed sample: %q", n+1, line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && typed[base] {
				family = base
				break
			}
		}
		if !typed[family] {
			t.Errorf("metrics line %d: sample %s has no # TYPE", n+1, name)
		}
	}
}

// TestBatchFanOutIsBounded: a batch runs its items from at most
// Workers + QueueCap goroutines, all the pool can admit at once, however
// many items it holds — and still answers every item, in order.  The
// request is served under a profiler label, which every goroutine it
// starts inherits, so the count is of the request's goroutines alone, not
// of whatever else the process (another package's test binary, the
// runtime) has alive.
func TestBatchFanOutIsBounded(t *testing.T) {
	const items, workers, queueCap = 20000, 2, 4
	svc := New(Config{Workers: workers, QueueCap: queueCap})
	defer svc.Close()
	body := "{\"requests\":[{}" + strings.Repeat(",{}", items-1) + "]}"

	const label = "batch-fan-out"
	var done atomic.Bool
	peak := make(chan int)
	go func() {
		n := 0
		for !done.Load() {
			n = max(n, labelledGoroutines(t, label))
		}
		peak <- n
	}()
	rec := httptest.NewRecorder()
	pprof.Do(context.Background(), pprof.Labels("test", label), func(context.Context) {
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body)))
	})
	done.Store(true)
	// The request's own goroutine, and the batch's; none means the
	// profile never showed the label, and the bound held vacuously.
	if n := <-peak; n < 1 || n > 1+workers+queueCap {
		t.Errorf("%d goroutines of the request alive during the batch, want 1 to 1 + %d + %d", n, workers, queueCap)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body)
	}
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != items {
		t.Fatalf("batch returned %d results, want %d", len(br.Results), items)
	}
	for i, r := range br.Results {
		if r.Result != nil || r.Error != "missing program or source" {
			t.Fatalf("item %d: %+v, want the missing-source error", i, r)
		}
	}
}

// labelledGoroutines counts the goroutines the goroutine profile shows
// under the profiler label test=label.
func labelledGoroutines(t *testing.T, label string) int {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Error(err)
		return 0
	}
	// Each record reads "N @ pc…", then "# labels: {…}" when it has any.
	want := fmt.Sprintf("# labels: {%q:%q}", "test", label)
	n, count := 0, 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if k, _, ok := strings.Cut(line, " @ "); ok {
			count, _ = strconv.Atoi(k)
		} else if line == want {
			n += count
		}
	}
	return n
}

// TestServiceBatch exercises /batch: mixed success and per-item errors
// in request order.
func TestServiceBatch(t *testing.T) {
	progs := buildPrograms(t)
	svc := New(Config{Workers: 2, QueueCap: 16})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	req := BatchRequest{Requests: []RunRequest{
		{Source: progs[0].src, Inputs: progs[0].inputs},
		{Source: "cellprogram broken(", Inputs: nil},
		{Source: progs[1].src, Inputs: progs[1].inputs},
	}}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(br.Results))
	}
	if br.Results[0].Result == nil || br.Results[0].Error != "" {
		t.Errorf("item 0: want success, got %+v", br.Results[0])
	}
	if br.Results[1].Result != nil || br.Results[1].Error == "" {
		t.Errorf("item 1: want a compile error, got %+v", br.Results[1])
	}
	if br.Results[2].Result == nil {
		t.Errorf("item 2: want success, got %+v", br.Results[2])
	}
	for name, want := range progs[0].want {
		got := br.Results[0].Result.Outputs[name]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("batch item 0: %s[%d] = %v, want %v", name, j, got[j], want[j])
			}
		}
	}
}

// TestServiceBackpressure saturates a 1-worker, tiny-queue service and
// expects 429 + Retry-After on the overflow requests.
func TestServiceBackpressure(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	// Occupy the single worker and the single queue slot with slow
	// simulations (large polynomial, backend pinned to the simulator so
	// the fast executor cannot drain the queue first), then overflow.
	big := workloads.Polynomial(10, 5000)
	prog, err := warp.Compile(big, warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]float64{}
	for _, param := range prog.Params() {
		if !param.Out {
			inputs[param.Name] = make([]float64, param.Size)
		}
	}
	// Warm the cache so the run requests go straight to the pool.
	resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{Source: big})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d: %s", resp.StatusCode, body)
	}

	const inflight = 6
	type outcome struct {
		status     int
		retryAfter string
	}
	outcomes := make(chan outcome, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, client, ts.URL+"/run", RunRequest{Source: big, Inputs: inputs, Backend: "sim"})
			outcomes <- outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}
	wg.Wait()
	close(outcomes)
	counts := map[int]int{}
	for o := range outcomes {
		counts[o.status]++
		if o.status != http.StatusTooManyRequests {
			continue
		}
		// Retry-After accompanies every 429 and is derived from observed
		// load, but the contract is a positive integer number of seconds.
		secs, err := strconv.Atoi(o.retryAfter)
		if err != nil {
			t.Errorf("429 Retry-After %q is not an integer: %v", o.retryAfter, err)
		} else if secs < 1 {
			t.Errorf("429 Retry-After = %d, want >= 1", secs)
		}
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Errorf("no request was turned away with 429; statuses: %v", counts)
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("no request succeeded under load; statuses: %v", counts)
	}

	ps := svc.PoolStats()
	if ps.Rejected == 0 {
		t.Error("pool recorded no rejections")
	}
}

// TestServiceGracefulClose proves Close waits for admitted runs.
func TestServiceGracefulClose(t *testing.T) {
	svc := New(Config{Workers: 2, QueueCap: 8})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	p := workloads.Polynomial(10, 100)
	prog, err := warp.Compile(p, warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]float64{}
	for _, param := range prog.Params() {
		if !param.Out {
			inputs[param.Name] = make([]float64, param.Size)
		}
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/run", RunRequest{Source: p, Inputs: inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d: %s", resp.StatusCode, body)
	}
	svc.Close()
	if got := svc.PoolStats().InFlight; got != 0 {
		t.Errorf("in-flight after Close = %d, want 0", got)
	}
	// Post-close runs are refused, not hung.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/run",
		bytes.NewReader([]byte(`{"source":"x","inputs":{}}`)))
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Error("run succeeded after Close")
	}
}

// TestCompilePanicDoesNotPoisonKey pins panic safety end to end: a
// compiler panic on the handler goroutine costs that request a
// 500, and the next /compile of the same source compiles normally
// instead of waiting forever on a flight nobody will ever land.
func TestCompilePanicDoesNotPoisonKey(t *testing.T) {
	var calls atomic.Int32
	svc := New(Config{Workers: 1, Compile: func(src string, opts warp.Options) (*warp.Program, error) {
		if calls.Add(1) == 1 {
			panic("compiler bug")
		}
		return warp.Compile(src, opts)
	}})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()
	client.Timeout = 10 * time.Second // a poisoned key would hang the second request

	req := CompileRequest{Source: workloads.PolynomialPaper()}
	resp, body := postJSON(t, client, ts.URL+"/compile", req)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "compiler bug") {
		t.Fatalf("panicking compile: status %d: %s; want 500 naming the panic", resp.StatusCode, body)
	}
	// The client learns the panic value and which request to look up;
	// the goroutine dump stays on the server, in that request's record.
	if strings.Contains(string(body), "goroutine ") {
		t.Errorf("500 body leaks a stack trace: %s", body)
	}
	id := regexp.MustCompile(`\(request (r\d+)\)`).FindStringSubmatch(string(body))
	if id == nil {
		t.Fatalf("500 body does not name its request: %s", body)
	}
	rresp, err := client.Get(ts.URL + "/debug/requests/" + id[1])
	if err != nil {
		t.Fatal(err)
	}
	var rec RequestRecord
	err = json.NewDecoder(rresp.Body).Decode(&rec)
	rresp.Body.Close()
	if err != nil || rec.Status != http.StatusInternalServerError || !strings.Contains(rec.Error, "compiler bug") || !strings.Contains(rec.Error, "goroutine ") {
		t.Errorf("flight record of the panicked request = %+v (decode error %v), want the panic value and its stack", rec, err)
	}
	resp, body = postJSON(t, client, ts.URL+"/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile after a panic: status %d: %s", resp.StatusCode, body)
	}
	if cs := svc.CacheStats(); cs.Entries != 1 || cs.Misses != 2 {
		t.Errorf("cache stats = %+v, want 1 entry after 2 misses", cs)
	}
}

// TestPoolPanicFailsAlone: a job that panics on a pool goroutine (an
// executor bug under /run; net/http's recover does not reach there)
// fails alone with the 500-mapped panic error, and the pool's only
// worker survives to serve the next job with its counters consistent.
func TestPoolPanicFailsAlone(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	err := p.Do(context.Background(), func(context.Context) error { panic("executor bug") })
	if status, _, _ := classify(err); !errors.Is(err, errPanic) || !strings.Contains(err.Error(), "executor bug") || status != http.StatusInternalServerError {
		t.Fatalf("panicking job returned %v (status %d), want a 500 naming the panic", err, status)
	}
	ran := false
	if err := p.Do(context.Background(), func(context.Context) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("job after a panic: ran=%v err=%v, want the worker to have survived", ran, err)
	}
	if s := p.Stats(); s.InFlight != 0 || s.Completed != 2 {
		t.Errorf("pool stats = %+v, want nothing in flight and 2 completed", s)
	}
}

// longLoop runs 2³⁴ + 4 cycles on its one cell, far past the default
// livelock guard of 2²⁸.
const longLoop = `module long (xs in, ys out)
float xs[1], ys[1];
cellprogram (cid : 0 : 0)
begin
  function f
  begin
    float t;
    int k;
    receive (L, X, t, xs[0]);
    for k := 0 to 17179869183 do begin
      t := t * 1.0;
    end;
    send (R, X, t, ys[0]);
  end
  call f;
end
`

// TestRunMaxCyclesLowersOnly: a request's max_cycles may lower the
// server's livelock guard, never raise it.  Whichever backend would run
// it, a run whose modeled cycles pass the guard is refused before it runs
// a cycle: asking for 2⁴⁰ cycles gets the server's 2²⁸ refusal at once,
// profiled or on the simulator too (a run that started would step up to
// the guard, or end at the deadline with a 504).
func TestRunMaxCyclesLowersOnly(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	for _, tc := range []struct {
		backend   string
		profile   bool
		maxCycles int64
		guard     string
	}{
		{"fast", false, 1 << 40, "exceeding 268435456;"},
		{"fast", false, 1000, "exceeding 1000;"},
		{"", true, 1 << 40, "exceeding 268435456;"},
		{"sim", false, 1 << 40, "exceeding 268435456;"},
	} {
		body, err := json.Marshal(RunRequest{Source: longLoop, Backend: tc.backend, Profile: tc.profile, MaxCycles: tc.maxCycles,
			TimeoutMS: 5000, Inputs: map[string][]float64{"xs": {1}}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		if wall := time.Since(start); wall > 50*time.Millisecond {
			t.Errorf("backend %q, profile %v, max_cycles %d: refused after %v, want within 50ms", tc.backend, tc.profile, tc.maxCycles, wall)
		}
		if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "modeled run needs 17179869188 cycles, "+tc.guard) {
			t.Errorf("backend %q, profile %v, max_cycles %d: status %d, body %q; want 422 and the refusal %s",
				tc.backend, tc.profile, tc.maxCycles, rec.Code, rec.Body, tc.guard)
		}
	}
}
