package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"warp"
	"warp/internal/verify"
	"warp/internal/workloads"
)

// fetchMetrics scrapes /metrics as text.
func fetchMetrics(t *testing.T, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestServiceRejectsUnverifiableProgram pins the verification contract
// at the HTTP boundary: a program that fails static verification is
// refused with 422, the body carries one structured diagnostic per
// violated invariant, and the rejection is counted under its own
// compile-result label at /metrics.  The verifier never rejects real
// compiler output (that is its soundness contract), so the test
// substitutes a compile function returning a canned *verify.Error.
func TestServiceRejectsUnverifiableProgram(t *testing.T) {
	verr := &verify.Error{Diags: []verify.Diagnostic{
		{Invariant: verify.InvQueueOverflow, Cell: 1, Instr: 7, Loop: -1,
			Detail: "channel X: occupancy reaches 131 (> 128)"},
		{Invariant: verify.InvFPULatency, Cell: -1, Instr: 12, Loop: -1,
			Detail: "send reads r3 before the producing write lands"},
	}}
	svc := New(Config{
		Workers: 1, QueueCap: 4, CacheSize: 4,
		Compile: func(src string, opts warp.Options) (*warp.Program, error) {
			return nil, verr
		},
	})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", CompileRequest{Source: "module x"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body: %s", resp.StatusCode, body)
	}
	var er struct {
		Error       string              `json:"error"`
		Diagnostics []verify.Diagnostic `json:"diagnostics"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("bad error body %s: %v", body, err)
	}
	if len(er.Diagnostics) != 2 {
		t.Fatalf("%d diagnostics, want 2; body: %s", len(er.Diagnostics), body)
	}
	if d := er.Diagnostics[0]; d.Invariant != verify.InvQueueOverflow || d.Cell != 1 || d.Instr != 7 {
		t.Errorf("first diagnostic = %+v", d)
	}

	// /run with inline source takes the same rejection path.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/run", RunRequest{Source: "module x"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("run status = %d, want 422; body: %s", resp.StatusCode, body)
	}

	metrics := fetchMetrics(t, ts.Client(), ts.URL)
	if !strings.Contains(metrics, `warpd_compile_requests_total{result="rejected"}`) {
		t.Errorf("metrics missing the rejected-compile counter:\n%s", metrics)
	}
}

// TestServiceVerifiesByDefault compiles a real program through the
// service and checks the verify phase ran and surfaced at /metrics.
func TestServiceVerifiesByDefault(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 4, CacheSize: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/compile",
		CompileRequest{Source: workloads.Polynomial(10, 20)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body: %s", resp.StatusCode, body)
	}
	metrics := fetchMetrics(t, ts.Client(), ts.URL)
	if !strings.Contains(metrics, `warpd_compile_phase_total{phase="verify"} 1`) {
		t.Errorf("metrics missing the verify compile phase:\n%s", metrics)
	}
}

// TestServiceKeyUnchanged pins two content addresses as they read
// while verification was an option the key hashed: every compile is
// verified now, and the key hashes "verify=true" for all of them, so no
// address a client holds has moved.
func TestServiceKeyUnchanged(t *testing.T) {
	src := workloads.Polynomial(10, 20)
	for _, tc := range []struct {
		opts warp.Options
		want string
	}{
		{warp.Options{}, "c625b29430665498b4f9adffaff8a2055fa20bd320e0ed23a8bf189537878c6b"},
		{warp.Options{Pipeline: true}, "94f5d2cbe69d3925616a6660e87dfea7994b78d17607d2e0a8a1b48691255c5e"},
	} {
		if got := Key(src, tc.opts); got != tc.want {
			t.Errorf("Key(%+v) = %s, want %s", tc.opts, got, tc.want)
		}
	}
}
