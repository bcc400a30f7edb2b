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

func decodeBody(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
}

// TestRunPartitionedEndToEnd posts a partitioned matmul — a 24×24×24
// problem over an 8-cell tile kernel — and checks the stitched result
// element-exact against the plain-Go reference, the fabric stats in
// the response, and the tile counters at /metrics.
func TestRunPartitionedEndToEnd(t *testing.T) {
	svc := New(Config{Workers: 2, Arrays: 3})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	const d = 24
	a, b := workloads.LargeMatmulData(d, d, d, 13)
	resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{
		Source: workloads.Matmul(8),
		Inputs: map[string][]float64{"a": a, "bmat": b},
		Partition: &PartitionJSON{
			Workload: "matmul", M: d, K: d, N: d,
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	decodeBody(t, body, &rr)
	want := workloads.MatmulRectRef(a, b, d, d, d)
	got := rr.Outputs["c"]
	if len(got) != len(want) {
		t.Fatalf("%d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("c[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if rr.Fabric == nil {
		t.Fatal("partitioned response missing fabric stats")
	}
	if rr.Fabric.Tiles != 27 || rr.Fabric.Arrays != 3 || rr.Fabric.Failed != 0 { // ⌈24/8⌉³
		t.Fatalf("fabric stats %+v, want 27 clean tiles on 3 arrays", rr.Fabric)
	}
	if rr.Fabric.Speedup < 2 {
		t.Fatalf("modeled speedup %.2f on 3 arrays, want ≥2", rr.Fabric.Speedup)
	}
	if rr.Stats.Cycles != rr.Fabric.MakespanCycles {
		t.Fatalf("response cycles %d != makespan %d", rr.Stats.Cycles, rr.Fabric.MakespanCycles)
	}

	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mb)
	for _, line := range []string{
		`warpd_fabric_jobs_total{result="ok"} 1`,
		"warpd_fabric_tiles_total 27",
		"warpd_fabric_tile_dispatch_total 27",
		"warpd_fabric_tile_retries_total 0",
		"warpd_fabric_tile_failures_total 0",
		"warpd_fabric_batches_total 3", // a verified kernel's tiles go nine to a walk of its fast plan
		"warpd_fabric_batch_fallbacks_total 0",
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

// TestRunPartitionedConv exercises the conv1d sharding path through
// the service, including kernel/signal parameter identification.  The
// first request's fabric width is the largest the wire's "arrays" can
// reasonably be abused with: the farm runs no wider than the plan's
// tiles, answers with the stitched result, and the server goes on to
// serve the ordinary request behind it.
func TestRunPartitionedConv(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	const nx, kw, window = 500, 9, 64
	x, w := workloads.LargeConv1DData(nx, kw, 3)
	want := workloads.Conv1DRef(x, w)
	for _, arrays := range []int{1 << 30, 4} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/run", RunRequest{
			Source:    workloads.Conv1D(kw, window),
			Inputs:    map[string][]float64{"x": x, "w": w},
			Partition: &PartitionJSON{Workload: "conv1d", Arrays: arrays},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("arrays=%d: status %d: %s", arrays, resp.StatusCode, body)
		}
		var rr RunResponse
		decodeBody(t, body, &rr)
		got := rr.Outputs["results"]
		if len(got) != len(want) {
			t.Fatalf("arrays=%d: %d outputs, want %d", arrays, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("arrays=%d: results[%d] = %v, want %v", arrays, i, got[i], want[i])
			}
		}
		if rr.Fabric == nil || rr.Fabric.Tiles <= 4 || rr.Fabric.Arrays != min(arrays, rr.Fabric.Tiles) {
			t.Fatalf("arrays=%d: fabric stats %+v, want the width capped at the tile count", arrays, rr.Fabric)
		}
	}
}

// TestRunPartitionedRejects covers the 4xx paths: bad workload, bad
// shape, and a kernel that is not partitionable.
func TestRunPartitionedRejects(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	a, b := workloads.LargeMatmulData(8, 8, 8, 1)
	for _, tc := range []struct {
		name   string
		req    RunRequest
		status int
	}{
		{"unknown workload", RunRequest{
			Source:    workloads.Matmul(4),
			Inputs:    map[string][]float64{"a": a, "bmat": b},
			Partition: &PartitionJSON{Workload: "fft"},
		}, http.StatusBadRequest},
		{"missing shape", RunRequest{
			Source:    workloads.Matmul(4),
			Inputs:    map[string][]float64{"a": a, "bmat": b},
			Partition: &PartitionJSON{Workload: "matmul"},
		}, http.StatusBadRequest},
		{"wrong-shaped operands", RunRequest{
			Source:    workloads.Matmul(4),
			Inputs:    map[string][]float64{"a": a[:5], "bmat": b},
			Partition: &PartitionJSON{Workload: "matmul", M: 8, K: 8, N: 8},
		}, http.StatusBadRequest},
		{"unpartitionable kernel", RunRequest{
			Source:    workloads.Polynomial(10, 100),
			Inputs:    map[string][]float64{},
			Partition: &PartitionJSON{Workload: "conv1d"},
		}, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, client, ts.URL+"/run", tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}
}

// TestRunPartitionedQueuedTimeoutCounted: a partitioned request whose
// deadline passes while it still sits in the admission queue — its job
// never starts — is answered 504 and counted once, as a fabric job.
func TestRunPartitionedQueuedTimeoutCounted(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	kernel := workloads.Matmul(8)
	if resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{Source: kernel}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d: %s", resp.StatusCode, body)
	}
	// Hold the only worker until the request has been answered.
	held, release, idle := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		idle <- svc.pool.Do(context.Background(), func(context.Context) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	const d = 24
	a, b := workloads.LargeMatmulData(d, d, d, 13)
	resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{
		Source:    kernel,
		Inputs:    map[string][]float64{"a": a, "bmat": b},
		Partition: &PartitionJSON{Workload: "matmul", M: d, K: d, N: d},
		TimeoutMS: 1,
	})
	close(release)
	if err := <-idle; err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}

	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(mb)
	if want := `warpd_fabric_jobs_total{result="timeout"} 1`; !strings.Contains(metrics, want) {
		t.Errorf("/metrics missing %q", want)
	}
	for _, not := range []string{`warpd_run_requests_total{result=`, `warpd_fabric_jobs_total{result="error"}`, `warpd_fabric_jobs_total{result="ok"}`} {
		if strings.Contains(metrics, not) {
			t.Errorf("/metrics counts the request a second time under %q", not)
		}
	}
}
