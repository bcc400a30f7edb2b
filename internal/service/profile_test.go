package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"warp/internal/workloads"
)

// getBody fetches a URL and returns the status plus body bytes.
func getBody(t *testing.T, client *http.Client, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestProfileDownload drives a profiled run over HTTP and pulls the
// profile back in all three formats, then checks the unprofiled and
// error paths.
func TestProfileDownload(t *testing.T) {
	svc := New(Config{Workers: 2, QueueCap: 8})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	src := workloads.Polynomial(4, 16)
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

	resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{
		Source: src, Inputs: inputs, Profile: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profiled run: %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Request == "" {
		t.Fatal("profiled RunResponse names no request ID")
	}

	// The flight listing flags the profile but does not inline it.
	recs := debugSnapshot(t, client, ts.URL)
	rec := findRecord(recs, "/run", "ok")
	if rec == nil || rec.ID != rr.Request {
		t.Fatalf("no flight record for request %q", rr.Request)
	}
	if !rec.HasProfile {
		t.Error("flight record has_profile = false for a profiled run")
	}
	if rec.Source != nil {
		t.Error("flight listing JSON inlined the profile body")
	}

	base := ts.URL + "/debug/requests/" + rr.Request + "/profile"

	// Default: gzipped pprof protobuf download.
	status, pb, hdr := getBody(t, client, base)
	if status != http.StatusOK {
		t.Fatalf("pprof download: %d: %s", status, pb)
	}
	if cd := hdr.Get("Content-Disposition"); !strings.Contains(cd, rr.Request) || !strings.Contains(cd, ".pprof.pb.gz") {
		t.Errorf("pprof Content-Disposition %q", cd)
	}
	if len(pb) < 2 || pb[0] != 0x1f || pb[1] != 0x8b {
		t.Errorf("pprof download is not gzip (starts % x)", pb[:min(4, len(pb))])
	}

	// Text report.
	status, txt, _ := getBody(t, client, base+"?format=text")
	if status != http.StatusOK || !strings.Contains(string(txt), "source profile:") {
		t.Errorf("text format: status %d, body %q", status, txt)
	}

	// Folded flame stacks: "frames... count" lines.
	status, folded, _ := getBody(t, client, base+"?format=folded")
	if status != http.StatusOK {
		t.Fatalf("folded format: %d", status)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(folded)), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.Contains(fields[0], ";") {
			t.Errorf("bad folded line %q", line)
		}
	}

	// Unknown format is a 400.
	if status, body, _ := getBody(t, client, base+"?format=svg"); status != http.StatusBadRequest {
		t.Errorf("unknown format: %d: %s", status, body)
	}

	// An unprofiled run 404s with a hint, as does an unknown ID.
	resp, body = postJSON(t, client, ts.URL+"/run", RunRequest{Source: src, Inputs: inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unprofiled run: %d: %s", resp.StatusCode, body)
	}
	var rr2 RunResponse
	if err := json.Unmarshal(body, &rr2); err != nil {
		t.Fatal(err)
	}
	status, body404, _ := getBody(t, client, ts.URL+"/debug/requests/"+rr2.Request+"/profile")
	if status != http.StatusNotFound || !strings.Contains(string(body404), "was not profiled") {
		t.Errorf("unprofiled request profile: %d: %s", status, body404)
	}
	if status, _, _ := getBody(t, client, ts.URL+"/debug/requests/r999999/profile"); status != http.StatusNotFound {
		t.Errorf("unknown request profile: %d", status)
	}
}

// TestProfilePartitioned checks a partitioned run's aggregate profile
// is downloadable and covers every tile's cycles.
func TestProfilePartitioned(t *testing.T) {
	svc := New(Config{Workers: 2, QueueCap: 8})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	const d = 8
	a, b := workloads.LargeMatmulData(d, d, d, 13)
	resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{
		Source:    workloads.Matmul(4),
		Inputs:    map[string][]float64{"a": a, "bmat": b},
		Partition: &PartitionJSON{Workload: "matmul", M: d, K: d, N: d, Arrays: 2},
		Profile:   true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partitioned profiled run: %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Fabric == nil || rr.Request == "" {
		t.Fatalf("partitioned response lacks fabric stats or request ID: %s", body)
	}
	rec, _ := svc.requests.get(rr.Request)
	if rec == nil || rec.Source == nil {
		t.Fatal("no profiled flight record for the partitioned run")
	}
	if rec.Source.Cycles != rr.Fabric.AggregateCycles {
		t.Errorf("aggregate profile covers %d cycles, fabric reports %d",
			rec.Source.Cycles, rr.Fabric.AggregateCycles)
	}
	status, txt, _ := getBody(t, client, ts.URL+"/debug/requests/"+rr.Request+"/profile?format=text")
	if status != http.StatusOK || !strings.Contains(string(txt), "source profile:") {
		t.Errorf("partitioned text profile: %d: %q", status, txt)
	}
}

// TestSchedMetricsExported checks /metrics carries the scheduler work
// counters after a cache-miss compilation.
func TestSchedMetricsExported(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{
		Source:  workloads.Polynomial(4, 16),
		Options: CompileOptions{Pipeline: true},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d: %s", resp.StatusCode, body)
	}

	status, metrics, _ := getBody(t, client, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	text := string(metrics)
	for _, want := range []string{
		"warpd_sched_compiles_total 1",
		"warpd_sched_loops_total",
		"warpd_sched_pipelined_total",
		"warpd_sched_ii_attempts_total",
		"warpd_sched_placements_total",
		"warpd_sched_search_seconds_total",
		"warpd_sched_skew_ops_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	// The pipelined compile did scheduler work: loops and placements are
	// strictly positive.
	for _, name := range []string{"warpd_sched_loops_total", "warpd_sched_placements_total"} {
		if strings.Contains(text, name+" 0\n") {
			t.Errorf("%s is zero after a pipelined cache-miss compile", name)
		}
	}
}
