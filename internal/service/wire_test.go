package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"warp"
	"warp/internal/alloctest"
	"warp/internal/workloads"
)

// wireBodies are /run bodies in the shapes the benchmark's serve-warm
// and serve-churn traffic sends (json.Marshal of a RunRequest with
// source, options and inputs; bounds for a template), then hostile cases
// the fast decoder must hand to encoding/json.  Unless full, sources and
// inputs are cut short: the fuzzer minimizes a new input for up to a
// minute, and the time grows with its length.
func wireBodies(tb testing.TB, full bool) [][]byte {
	tb.Helper()
	r := rand.New(rand.NewSource(1))
	vals := func(n int) []float64 {
		if !full {
			n = min(n, 6)
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(9)-4))
		}
		return v
	}
	src := func(s string) string {
		if !full {
			s = s[:min(len(s), 160)]
		}
		return s
	}
	var bodies [][]byte
	for _, req := range []RunRequest{
		{Source: src(workloads.Polynomial(10, 100)), Options: CompileOptions{Pipeline: true},
			Inputs: map[string][]float64{"z": vals(100), "c": vals(10)}},
		{Source: src(workloads.Conv1D(9, 512)), Options: CompileOptions{Pipeline: true},
			Inputs: map[string][]float64{"x": vals(512), "w": vals(9)}},
		{Source: src(workloads.Matmul(32)), Options: CompileOptions{Pipeline: true},
			Inputs: map[string][]float64{"a": vals(1024), "bmat": vals(1024)}},
		{Source: src(workloads.Matmul(16)) + "/* ${n} < & > */", Options: CompileOptions{Pipeline: true, Bounds: map[string]int64{"n": 16}},
			Inputs: map[string][]float64{"a": vals(256), "bmat": {}}},
		{Program: "abc@n=32", Options: CompileOptions{NoOptimize: true, Cells: 4, Symbolic: true},
			Inputs:    map[string][]float64{"a": {0, -1, 1e-7, 1e21, math.MaxFloat64, math.SmallestNonzeroFloat64}},
			TimeoutMS: 250, MaxCycles: 1 << 40, Profile: true, Backend: "fast"},
		{},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	for _, s := range []string{
		`{"Inputs":{"a":[1,2]}}`,
		`{"inputs":{"a":[1]},"inputs":{"b":[2]}}`,
		`{"inputs":{"a":[1],"a":[2,3]}}`,
		`{"source":"x","source":"y"}`,
		`{"options":{"bounds":{"n":1,"n":2}}}`,
		`null`,
		`{"source":null,"inputs":null}`,
		`{"source":"😀"}`,
		`{"source":"é<\u0000\/\b\f\n\r\t\"\\"}`,
		"{\"source\":\"café\"}",
		"{\"source\":\"\xff\xfe\"}",
		"{\"source\":\"a\x01b\"}",
		`{"inputs":{"a":[1e400]}}`,
		`{"inputs":{"a":[-1e-400]}}`,
		`{"inputs":{"a":[-0]}}`,
		`{"inputs":{"a":[01]}}`,
		`{"inputs":{"a":[.5]}}`,
		`{"inputs":{"a":[NaN]}}`,
		`{"inputs":{"a":[Inf]}}`,
		`{"inputs":{"a":[0x1p3]}}`,
		`{"inputs":{"a":[+1]}}`,
		`{"inputs":{"a":[1.]}}`,
		`{"inputs":{"a":[1e]}}`,
		`{"inputs":{"a":[1E+2,2e-2,-3.5e0]}}`,
		`{"inputs":{"a":[1,]}}`,
		`{"options":{"bounds":{"n":1.0}}}`,
		`{"options":{"cells":1e3}}`,
		`{"timeout_ms":9223372036854775808}`,
		`{"max_cycles":-0}`,
		`{"profile":tru}`,
		`{"profile":truex}`,
		`{"source":"x"} trailing junk`,
		`{"source":"x"`,
		` { "source" : "x" , "inputs" : { "a" : [ 1 , 2 ] } } `,
		`{"source":"x","colour":1}`,
		`{"source":"x","partition":{"workload":"matmul","m":4,"k":4,"n":4}}`,
		`{"inputs":{"ab":[1]}}`,
		`{"source":"\u12"}`,
		`{"source":"\u+123"}`,
		`{}`,
		``,
		`[]`,
	} {
		bodies = append(bodies, []byte(s))
	}
	return append(bodies, []byte(`{"source":"`+strings.Repeat("x", 100)+`"}`))
}

// decodeBoth decodes body through the fast /run decoder and through the
// reference one under a body limit.
func decodeBoth(body []byte, limit int64) (got, want RunRequest, gotErr, wantErr error) {
	s := &Server{cfg: Config{MaxBodyBytes: limit}}
	post := func() *http.Request {
		return &http.Request{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
	}
	gotErr = s.decodeRun(nil, post(), &got)
	wantErr = s.decode(nil, post(), &want)
	return
}

// sameDecode fails t unless, at the default limit and at one that cuts
// body in half, the fast decoder gives the reference decoder's request
// or its error text.
func sameDecode(t *testing.T, body []byte) {
	t.Helper()
	for _, limit := range []int64{8 << 20, int64(len(body)/2) + 1} {
		got, want, gotErr, wantErr := decodeBoth(body, limit)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("limit %d: error %v, reference %v", limit, gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("limit %d: error %q, reference %q", limit, gotErr, wantErr)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("limit %d: decoded\n%#v\nreference\n%#v", limit, got, want)
		}
	}
}

// FuzzRunRequestDecode: any body decodes as the reference decodes it.
func FuzzRunRequestDecode(f *testing.F) {
	for _, b := range wireBodies(f, false) {
		f.Add(b)
	}
	f.Fuzz(sameDecode)
}

// TestRunRequestDecodeServeBodies: the serve workloads' bodies at full
// size decode as the reference decodes them.
func TestRunRequestDecodeServeBodies(t *testing.T) {
	for _, b := range wireBodies(t, true) {
		sameDecode(t, b)
	}
}

// TestRunRequestDecodeErrors pins error texts the fast decoder leaves to
// the reference one, under a 48-byte body limit.
func TestRunRequestDecodeErrors(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"inputs":{"a":[1e400]}}`, "bad request body: json: cannot unmarshal number 1e400 into Go struct field RunRequest.inputs of type float64"},
		{`{"inputs":{"a":[01]}}`, "bad request body: invalid character '1' after array element"},
		{`{"inputs":{"a":[NaN]}}`, "bad request body: invalid character 'N' looking for beginning of value"},
		{`{"options":{"bounds":{"n":1.0}}}`, "bad request body: json: cannot unmarshal number 1.0 into Go struct field CompileOptions.options.bounds of type int64"},
		{`{"source":"x","colour":1}`, `bad request body: json: unknown field "colour"`},
		{`{"source":"` + strings.Repeat("x", 64) + `"}`, "bad request body: http: request body too large"},
	} {
		_, _, err, _ := decodeBoth([]byte(tc.body), 48)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.body, err, tc.want)
		}
	}
}

// TestRunResponseEncodeMatchesJSON: a run response is written byte for
// byte as json.NewEncoder(w).Encode writes it.
func TestRunResponseEncodeMatchesJSON(t *testing.T) {
	if n := reflect.TypeOf(RunResponse{}).NumField(); n != 7 {
		t.Fatalf("RunResponse has %d fields; runResponse writes 7", n)
	}
	r := rand.New(rand.NewSource(2))
	special := []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, 9.99e-7, 1e-6,
		1e20, 1e21, 123456789e13, math.MaxFloat64, -math.MaxFloat64, 0.1, -2.5, 1e-300}
	for i := 0; i < 200; i++ {
		outs := map[string][]float64{}
		for _, name := range []string{"y", "a<b", "x&y", "résumé", "tab\t", " "}[:r.Intn(7)] {
			v := make([]float64, r.Intn(20))
			for j := range v {
				switch r.Intn(3) {
				case 0:
					v[j] = special[r.Intn(len(special))]
				case 1:
					v[j] = math.Float64frombits(r.Uint64())
					if math.IsNaN(v[j]) || math.IsInf(v[j], 0) {
						v[j] = 1
					}
				default:
					v[j] = r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
				}
			}
			if r.Intn(10) == 0 {
				v = nil
			}
			outs[name] = v
		}
		if r.Intn(10) == 0 {
			outs = nil
		}
		resp := &RunResponse{Program: "p<&>é", Cached: i%2 == 0, Outputs: outs,
			Stats: RunStatsJSON{Cycles: int64(i), Backend: "fast", MaxQueue: 3, AddUtilization: 0.25}}
		if i%3 == 0 {
			resp.Fabric = &FabricJSON{Tiles: 4, Speedup: 1.5}
			resp.Request = "r-12"
			resp.Decision = &warp.Decision{Backend: "fast", Reason: "auto-verified"}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, resp)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("status %d, body\n%s\nwant\n%s", rec.Code, rec.Body.Bytes(), want.Bytes())
		}
	}
}

// TestWriteJSONEncodeFailure: a value the encoder refuses is a 500 that
// says why, not a 200 with an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &RunResponse{Outputs: map[string][]float64{"y": {math.Inf(1)}}})
	want := `{"error":"encoding the response: json: unsupported value: +Inf"}` + "\n"
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
		t.Errorf("status %d, body %q; want 500, %q", rec.Code, rec.Body, want)
	}
}

// TestRunRefusesNonFiniteOutputs: a run whose outputs overflow is a 422
// naming the first non-finite output, counted as a failed run.
func TestRunRefusesNonFiniteOutputs(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	src := workloads.Polynomial(10, 100)
	prog, err := warp.Compile(src, warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]float64{}
	for _, p := range prog.Params() {
		if !p.Out {
			inputs[p.Name] = make([]float64, p.Size)
			for i := range inputs[p.Name] {
				inputs[p.Name][i] = 1e300
			}
		}
	}
	body, err := json.Marshal(RunRequest{Source: src, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
	want := `{"error":"output results[0] is +Inf, which a JSON response cannot carry"}` + "\n"
	if rec.Code != http.StatusUnprocessableEntity || rec.Body.String() != want {
		t.Errorf("status %d, body %q; want 422, %q", rec.Code, rec.Body, want)
	}
	m := srv.Metrics()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.runs["ok"] != 0 || m.runs["error"] != 1 {
		t.Errorf("runs counted %v, want one error", m.runs)
	}
}

// TestWarmRunAllocs pins what a warm /run allocates through ServeHTTP,
// request and recorder included (the benchmark's mallocs_per_req
// measures the same); before the single-pass decoder and the pooled
// encoder it was 128.
func TestWarmRunAllocs(t *testing.T) {
	if alloctest.Race {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	srv := New(Config{Workers: 1})
	defer srv.Close()
	src := workloads.Polynomial(10, 100)
	body, err := json.Marshal(RunRequest{Source: src, Options: CompileOptions{Pipeline: true},
		Inputs: map[string][]float64{"z": make([]float64, 100), "c": make([]float64, 10)}})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // compiles
	allocs := alloctest.AllocsPerRun(20, serve)
	t.Logf("%.0f allocations per warm /run", allocs)
	const ceiling = 106
	if allocs > ceiling {
		t.Errorf("a warm /run allocates %.0f times, want at most %d", allocs, ceiling)
	}
}

// BenchmarkRunRequestDecode times a matmul(32) /run body (2×1024
// inputs) through the single-pass decoder and through encoding/json.
func BenchmarkRunRequestDecode(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	inputs := map[string][]float64{"a": make([]float64, 1024), "bmat": make([]float64, 1024)}
	for _, v := range inputs {
		for i := range v {
			v[i] = r.NormFloat64()
		}
	}
	body, err := json.Marshal(RunRequest{Source: workloads.Matmul(32), Options: CompileOptions{Pipeline: true}, Inputs: inputs})
	if err != nil {
		b.Fatal(err)
	}
	s := &Server{cfg: Config{MaxBodyBytes: 8 << 20}}
	for _, bc := range []struct {
		name   string
		decode func(http.ResponseWriter, *http.Request, *RunRequest) error
	}{
		{"single-pass", s.decodeRun},
		{"encoding-json", func(w http.ResponseWriter, r *http.Request, req *RunRequest) error { return s.decode(w, r, req) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req RunRequest
				if err := bc.decode(nil, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)), &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
