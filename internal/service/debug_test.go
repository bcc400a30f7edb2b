package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"warp/internal/obs"
	"warp/internal/workloads"
)

// debugSnapshot fetches and decodes GET /debug/requests.
func debugSnapshot(t *testing.T, client *http.Client, base string) []*RequestRecord {
	t.Helper()
	resp, err := client.Get(base + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/requests: %d", resp.StatusCode)
	}
	var body struct {
		Requests []*RequestRecord `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Requests
}

// findRecord returns the newest record for the given endpoint+outcome.
func findRecord(recs []*RequestRecord, endpoint, outcome string) *RequestRecord {
	for _, r := range recs {
		if r.Endpoint == endpoint && r.Outcome == outcome {
			return r
		}
	}
	return nil
}

func spanNames(spans []obs.SpanRecord) []string {
	names := make([]string, len(spans))
	for i := range spans {
		names[i] = spans[i].Name
	}
	return names
}

// TestDebugRequestsEndToEnd drives the service over HTTP and verifies
// the flight recorder exposes a coherent span tree: a cache-miss run
// shows queue-wait, cache with per-phase compile children, and a run
// span carrying the profile summary — and the durations sum
// consistently against the logged total.
func TestDebugRequestsEndToEnd(t *testing.T) {
	var logBuf bytes.Buffer
	logMu := &syncWriter{w: &logBuf}
	logger := slog.New(slog.NewJSONHandler(logMu, nil))

	svc := New(Config{Workers: 2, QueueCap: 8, Logger: logger})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	src := workloads.Polynomial(10, 64)
	inputs := map[string][]float64{}
	prog, _, _, err := svc.cache.Get(context.Background(), src, CompileOptions{}.warpOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prog.Params() {
		if !p.Out {
			inputs[p.Name] = make([]float64, p.Size)
		}
	}
	// Start from a cold HTTP-visible cache: use a distinct source text so
	// the /run below is a miss and compiles inside the request.
	missSrc := src + "\n"
	resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{Source: missSrc, Inputs: inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d: %s", resp.StatusCode, body)
	}
	// A second, cache-hitting run.
	resp, body = postJSON(t, client, ts.URL+"/run", RunRequest{Source: missSrc, Inputs: inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run (hit): %d: %s", resp.StatusCode, body)
	}

	recs := debugSnapshot(t, client, ts.URL)
	if len(recs) != 2 {
		t.Fatalf("flight recorder holds %d records, want 2", len(recs))
	}
	// Newest first: recs[0] is the hit, recs[1] the miss.
	if !recs[0].Cached || recs[1].Cached {
		t.Fatalf("expected newest-first [hit, miss]; got cached=%t,%t", recs[0].Cached, recs[1].Cached)
	}

	miss := recs[1]
	if miss.Outcome != "ok" || miss.Status != http.StatusOK {
		t.Fatalf("miss record outcome=%q status=%d", miss.Outcome, miss.Status)
	}
	if miss.Cycles <= 0 {
		t.Errorf("miss record cycles = %d, want > 0", miss.Cycles)
	}
	if miss.TotalNS <= 0 {
		t.Errorf("miss record total_ns = %d, want > 0", miss.TotalNS)
	}

	// The span tree: a root, the request stages, and per-phase compile
	// children under the cache span.
	names := spanNames(miss.Spans)
	for _, want := range []string{"request", "cache", "queue-wait", "run", "parse", "cellgen"} {
		if !contains(names, want) {
			t.Errorf("miss span tree lacks %q; have %v", want, names)
		}
	}
	byName := map[string]*obs.SpanRecord{}
	var root *obs.SpanRecord
	for i := range miss.Spans {
		sp := &miss.Spans[i]
		if _, dup := byName[sp.Name]; !dup {
			byName[sp.Name] = sp
		}
		if sp.Parent == -1 {
			if root != nil {
				t.Fatalf("two root spans: %q and %q", root.Name, sp.Name)
			}
			root = sp
		}
	}
	if root == nil || root.Name != "request" {
		t.Fatalf("no request root span; names %v", names)
	}
	if root.DurNS() != miss.TotalNS {
		t.Errorf("root span duration %d != record total %d", root.DurNS(), miss.TotalNS)
	}
	// Every span closed, nested within the root, and the direct stage
	// children sum to no more than the total.
	var stageSum int64
	for i := range miss.Spans {
		sp := &miss.Spans[i]
		if sp.EndNS < 0 {
			t.Errorf("span %q left open", sp.Name)
		}
		if sp.StartNS < root.StartNS || sp.EndNS > root.EndNS {
			t.Errorf("span %q [%d,%d] escapes root [%d,%d]",
				sp.Name, sp.StartNS, sp.EndNS, root.StartNS, root.EndNS)
		}
		if sp.Parent == root.ID {
			stageSum += sp.DurNS()
		}
	}
	if stageSum > miss.TotalNS {
		t.Errorf("stage spans sum to %d > total %d", stageSum, miss.TotalNS)
	}
	// Compile phases are children of the cache span and fit inside it.
	cache, run := byName["cache"], byName["run"]
	if parse := byName["parse"]; parse.Parent != cache.ID {
		t.Errorf("parse span parent = %d, want cache %d", parse.Parent, cache.ID)
	}
	if run.Summary == nil {
		t.Error("run span has no profile summary attached")
	} else if run.Summary.Cycles != miss.Cycles {
		t.Errorf("run summary cycles %d != record cycles %d", run.Summary.Cycles, miss.Cycles)
	}

	// The cache hit compiled nothing: no phase spans, cache annotated hit.
	hit := recs[0]
	hitNames := spanNames(hit.Spans)
	if contains(hitNames, "parse") {
		t.Errorf("cache-hit request shows compile phases: %v", hitNames)
	}

	// The structured log agrees with the flight record.
	logged := parseLogLines(t, logBuf.Bytes())
	var missLine map[string]any
	for _, line := range logged {
		if line["id"] == miss.ID {
			missLine = line
		}
	}
	if missLine == nil {
		t.Fatalf("no log line for request %s; log:\n%s", miss.ID, logBuf.String())
	}
	if got := int64(missLine["total_ns"].(float64)); got != miss.TotalNS {
		t.Errorf("logged total_ns %d != record total_ns %d", got, miss.TotalNS)
	}
	for _, k := range []string{"cache_ns", "queue-wait_ns", "run_ns", "cycles", "program"} {
		if _, ok := missLine[k]; !ok {
			t.Errorf("log line lacks %q: %v", k, missLine)
		}
	}
	if missLine["outcome"] != "ok" {
		t.Errorf("logged outcome %v, want ok", missLine["outcome"])
	}

	// A bounds request files its compile's phases the same way: a miss
	// shows them under its cache span and in the per-phase metrics, a hit
	// nothing.
	parses := func() string {
		var sb strings.Builder
		svc.Metrics().WritePrometheus(&sb, svc.CacheStats(), svc.TemplateCacheStats(), svc.PoolStats())
		_, after, _ := strings.Cut(sb.String(), `warpd_compile_phase_total{phase="parse"} `)
		count, _, _ := strings.Cut(after, "\n")
		return count
	}
	if got := parses(); got != "1" {
		t.Fatalf("parse phases counted before the bounds requests = %q, want 1", got)
	}
	sym := workloads.MatmulSym()
	for _, n := range []int64{8, 14, 14} {
		resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{
			Source: sym, Options: CompileOptions{Bounds: map[string]int64{"n": n}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bounds compile n=%d: %d: %s", n, resp.StatusCode, body)
		}
	}
	if got := parses(); got != "3" {
		t.Errorf("parse phases counted after two bounds misses and a hit = %q, want 3", got)
	}
	recs = debugSnapshot(t, client, ts.URL) // newest first: hit, n=14, n=8
	for i, miss := range []bool{false, true, true} {
		cacheID := -2 // not yet seen; -1 is the root's parent
		var got []string
		for _, sp := range recs[i].Spans {
			switch {
			case sp.Name == "cache":
				cacheID = sp.ID
			case sp.Parent == cacheID:
				got = append(got, sp.Name)
			}
		}
		if compiled := len(got) > 0 && got[0] == "parse"; compiled != miss || !miss && len(got) > 0 {
			t.Errorf("bounds request %s: phase spans under cache = %v, want compile phases only on a miss (%v)", recs[i].ID, got, miss)
		}
	}
	// A failed compilation returns no artifact, so it files no phases;
	// its cache span says why instead.
	if resp, _ := postJSON(t, client, ts.URL+"/compile", CompileRequest{Source: "cellprogram nonsense("}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad source: status %d, want 400", resp.StatusCode)
	}
	failed := debugSnapshot(t, client, ts.URL)[0]
	if names := spanNames(failed.Spans); len(names) != 2 || names[1] != "cache" {
		t.Errorf("failed compile spans = %v, want request and cache only", names)
	} else if a := failed.Spans[1].Attrs; len(a) != 1 || a[0].Key != "error" || a[0].Value != failed.Error {
		t.Errorf("failed compile cache attrs = %v, want the error %q", a, failed.Error)
	}

	// One partitioned request is one record like any other: its ID
	// resolves on every per-request view, and an unknown ID is refused
	// by all of them with the same answer.
	const d = 16
	a, b := workloads.LargeMatmulData(d, d, d, 13)
	resp, body = postJSON(t, client, ts.URL+"/run", RunRequest{
		Source:    workloads.Matmul(8),
		Inputs:    map[string][]float64{"a": a, "bmat": b},
		Partition: &PartitionJSON{Workload: "matmul", M: d, K: d, N: d},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partitioned run: %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	decodeBody(t, body, &rr)
	views := []string{"", "/trace", "/profile", "/progress?format=json"}
	for i, check := range []func(status int, body []byte){
		func(status int, body []byte) {
			var rec RequestRecord
			decodeBody(t, body, &rec)
			if status != http.StatusOK || rec.ID != rr.Request || rec.Decision == nil || rec.Cycles != rr.Fabric.AggregateCycles || !contains(spanNames(rec.Spans), "fabric") {
				t.Errorf("record: status %d, %+v; want the partitioned run with its decision and a fabric span", status, rec)
			}
		},
		func(status int, body []byte) {
			if status != http.StatusOK || !strings.Contains(string(body), `"fabric"`) {
				t.Errorf("trace: status %d, no fabric slice in %s", status, body)
			}
		},
		func(status int, body []byte) {
			if status != http.StatusNotFound || !strings.Contains(string(body), "was not profiled") {
				t.Errorf("profile of an unprofiled run: status %d: %s; want 404 with the rerun hint", status, body)
			}
		},
		func(status int, body []byte) {
			var ev ProgressEvent
			decodeBody(t, body, &ev)
			if status != http.StatusOK || ev.ID != rr.Request || !ev.Done || ev.Tiles != rr.Fabric.Tiles || ev.TilesDone != ev.Tiles {
				t.Errorf("progress: status %d, %+v; want the finished job's last position", status, ev)
			}
		},
	} {
		status, body, _ := getBody(t, client, ts.URL+"/debug/requests/"+rr.Request+views[i])
		check(status, body)
	}
	_, unknown, _ := getBody(t, client, ts.URL+"/debug/requests/r999999")
	for _, view := range views {
		if status, body, _ := getBody(t, client, ts.URL+"/debug/requests/r999999"+view); status != http.StatusNotFound || !bytes.Equal(body, unknown) {
			t.Errorf("unknown ID on %q: status %d: %s; want 404 %s", view, status, body, unknown)
		}
	}

}

// TestDebugTraceDownload checks the per-request Chrome trace endpoint.
func TestDebugTraceDownload(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	src := workloads.Polynomial(4, 16)
	resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d: %s", resp.StatusCode, body)
	}
	recs := debugSnapshot(t, client, ts.URL)
	rec := findRecord(recs, "/compile", "ok")
	if rec == nil {
		t.Fatal("no /compile record")
	}

	traceResp, err := client.Get(ts.URL + "/debug/requests/" + rec.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer traceResp.Body.Close()
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("trace download: %d", traceResp.StatusCode)
	}
	if cd := traceResp.Header.Get("Content-Disposition"); !strings.Contains(cd, rec.ID) {
		t.Errorf("Content-Disposition %q does not name the request", cd)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(traceResp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// Metadata plus one X event per span.
	if want := len(rec.Spans) + 1; len(doc.TraceEvents) != want {
		t.Errorf("trace has %d events, want %d", len(doc.TraceEvents), want)
	}

	// Unknown IDs 404.
	missResp, err := client.Get(ts.URL + "/debug/requests/r999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	missResp.Body.Close()
	if missResp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace ID: %d, want 404", missResp.StatusCode)
	}
}

// syncWriter serializes concurrent slog writes into one buffer.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// parseLogLines decodes newline-delimited JSON log output.
func parseLogLines(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	for i, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("log line %d is not JSON: %v: %s", i, err, line)
		}
		out = append(out, m)
	}
	return out
}
