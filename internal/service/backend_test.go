package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"warp/internal/workloads"
)

// TestServiceBackendSelection drives the wire contract of the backend
// field: a default (verifying) server runs "fast" requests on the fast
// executor, "sim" requests on the simulator, picks fast automatically,
// and the two agree on outputs and cycles word for word.  Every
// response's decision holds only exact and measured fields.
func TestServiceBackendSelection(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	src := workloads.Polynomial(10, 40)
	inputs := map[string][]float64{
		"z": make([]float64, 40),
		"c": make([]float64, 10),
	}
	for i := range inputs["z"] {
		inputs["z"][i] = float64(i%9)/4 - 1
	}
	for i := range inputs["c"] {
		inputs["c"][i] = float64(i+1) / 8
	}

	run := func(backend string) RunResponse {
		t.Helper()
		resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{
			Source: src, Inputs: inputs, Backend: backend,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("backend %q: status %d: %s", backend, resp.StatusCode, body)
		}
		var rr RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		// The decision carries what is exact or measured, and nothing
		// else: its cycle count is the one the run reports.
		var raw struct {
			Decision map[string]json.RawMessage `json:"decision"`
		}
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(raw.Decision))
		for k := range raw.Decision {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got, want := strings.Join(keys, ","), "actual_wall_ns,backend,cells,predicted_cycles,predicted_ops,reason"; got != want {
			t.Errorf("backend %q: decision keys %s, want %s", backend, got, want)
		}
		if rr.Decision == nil || rr.Decision.PredictedCycles != rr.Stats.Cycles {
			t.Errorf("backend %q: decision %+v, run counted %d cycles", backend, rr.Decision, rr.Stats.Cycles)
		}
		return rr
	}

	simRR := run("sim")
	if simRR.Stats.Backend != "sim" {
		t.Errorf(`explicit sim run reports backend %q`, simRR.Stats.Backend)
	}
	fastRR := run("fast")
	if fastRR.Stats.Backend != "fast" {
		t.Errorf(`explicit fast run reports backend %q`, fastRR.Stats.Backend)
	}
	autoRR := run("")
	if autoRR.Stats.Backend != "fast" {
		t.Errorf(`auto run on a verified program reports backend %q, want "fast"`, autoRR.Stats.Backend)
	}

	if fastRR.Stats.Cycles != simRR.Stats.Cycles {
		t.Errorf("cycles diverge over the wire: fast %d, sim %d", fastRR.Stats.Cycles, simRR.Stats.Cycles)
	}
	for name, sv := range simRR.Outputs {
		fv := fastRR.Outputs[name]
		for i := range sv {
			if fv[i] != sv[i] {
				t.Fatalf("%s[%d] diverges over the wire: fast %v, sim %v", name, i, fv[i], sv[i])
			}
		}
	}

	// The per-backend counter must be live on /metrics.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	svc.Metrics().WritePrometheus(&sb, svc.CacheStats(), svc.TemplateCacheStats(), svc.PoolStats())
	text := sb.String()
	for _, want := range []string{
		`warpd_backend_runs_total{backend="fast"} 2`,
		`warpd_backend_runs_total{backend="sim"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServiceBackendUnknown rejects made-up backend names with 400.
func TestServiceBackendUnknown(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/run", RunRequest{
		Source:  workloads.Polynomial(10, 20),
		Inputs:  map[string][]float64{"z": make([]float64, 20), "c": make([]float64, 10)},
		Backend: "turbo",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestServiceBackendPartitioned: the backend field reaches the fabric
// farm — a partitioned run on a verified kernel reports the fast
// backend in its stats.
func TestServiceBackendPartitioned(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	const tile, m, k, n = 4, 8, 8, 8
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	for i := range a {
		a[i] = float64(i%7) / 4
	}
	for i := range b {
		b[i] = float64(i%5) / 8
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/run", RunRequest{
		Source:  workloads.Matmul(tile),
		Inputs:  map[string][]float64{"a": a, "bmat": b},
		Backend: "fast",
		Partition: &PartitionJSON{
			Workload: "matmul", M: m, K: k, N: n, Arrays: 2,
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Stats.Backend != "fast" {
		t.Errorf("partitioned run reports backend %q, want fast", rr.Stats.Backend)
	}
	want := workloads.MatmulRef(a, b, m)
	got := rr.Outputs["c"]
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("c[%d] = %v, reference %v", i, got[i], want[i])
		}
	}
}
