package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"warp"
	"warp/internal/workloads"
)

// TestServiceSymbolicCompileAndRun drives the bounds path end to end:
// the template is parsed once, every bound vector compiles its own
// program under a "<template>@<bounds>" content address, that program
// runs by address with outputs identical to a plain compile of the
// substituted source, and the template-cache counters show up on
// /metrics and the detail in the flight record.
func TestServiceSymbolicCompileAndRun(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	src := workloads.MatmulSym()
	compileAt := func(n int64) CompileResponse {
		t.Helper()
		resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{
			Source:  src,
			Options: CompileOptions{Bounds: map[string]int64{"n": n}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bounds compile n=%d: status %d: %s", n, resp.StatusCode, body)
		}
		var cr CompileResponse
		decodeBody(t, body, &cr)
		// The template field is wire format; substitution never serves
		// from closed forms.
		if cr.Template == nil || cr.Template.Symbolic || cr.Template.ClassBuilt {
			t.Fatalf("n=%d response template detail = %+v, want {symbolic: false}", n, cr.Template)
		}
		return cr
	}
	cr8, cr14 := compileAt(8), compileAt(14)
	wantKey := Key(src, CompileOptions{}.warpOptions()) + "@n=14"
	if cr14.Program != wantKey || cr14.Program == cr8.Program {
		t.Fatalf("program keys n=8 %s, n=14 %s; want n=14 at %s", cr8.Program, cr14.Program, wantKey)
	}
	if cr8.Cached || cr14.Cached {
		t.Fatal("first compile of a bound vector reported cached")
	}
	// Repeat is a cache hit on the compiled program.
	if crRepeat := compileAt(14); !crRepeat.Cached || crRepeat.Program != cr14.Program {
		t.Fatalf("repeat compile: cached=%v program=%s, want hit on %s", crRepeat.Cached, crRepeat.Program, cr14.Program)
	}

	// The program runs by its content address, and the outputs match a
	// plain compile of the substituted source.
	concrete, err := warp.Compile(workloads.Matmul(14), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]float64{}
	for _, p := range concrete.Params() {
		if p.Out {
			continue
		}
		arr := make([]float64, p.Size)
		for j := range arr {
			arr[j] = float64(j%7) / 4
		}
		inputs[p.Name] = arr
	}
	want, _, err := concrete.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{Program: cr14.Program, Inputs: inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run by id: status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	decodeBody(t, body, &rr)
	if !reflect.DeepEqual(rr.Outputs, want) {
		t.Fatalf("run by id: outputs differ from a concrete compile's")
	}

	// /run with inline template source resolves through the same
	// template cache (a hit now).
	resp, body = postJSON(t, client, ts.URL+"/run", RunRequest{
		Source:  src,
		Options: CompileOptions{Symbolic: true, Bounds: map[string]int64{"n": 14}},
		Inputs:  inputs,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run by template source: status %d: %s", resp.StatusCode, body)
	}
	var rr2 RunResponse
	decodeBody(t, body, &rr2)
	if !rr2.Cached || rr2.Program != cr14.Program {
		t.Fatalf("template run: cached=%v program=%s, want hit on %s", rr2.Cached, rr2.Program, cr14.Program)
	}

	// Template-cache counters are live on /metrics.
	tcs := svc.TemplateCacheStats()
	if tcs.Templates != 1 || tcs.Programs != 2 || tcs.Misses != 2 || tcs.Hits != 3 {
		t.Fatalf("template cache stats = %+v, want 1 template, 2 programs, 2 misses, 3 hits", tcs)
	}
	var sb strings.Builder
	svc.Metrics().WritePrometheus(&sb, svc.CacheStats(), tcs, svc.PoolStats())
	text := sb.String()
	for _, want := range []string{
		"warpd_template_entries 1",
		"warpd_template_programs 2",
		"warpd_template_hits_total 3",
		"warpd_template_misses_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The flight recorder carries the template detail.
	resp, err = client.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Requests []*RequestRecord `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rec := range listing.Requests {
		found = found || rec.Template != nil
	}
	if !found {
		t.Error("no flight record carries a template detail")
	}
}

// TestServiceSymbolicErrors pins the bounds path's error contract: an
// unknown or missing bound, and a placeholder whose value overflows
// int64 or is not an integer, are 400s counted as compile errors — and
// the program that would have been wrong is never compiled.
func TestServiceSymbolicErrors(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	const big = 1<<33 + 1
	sized := func(expr string) string {
		return strings.Replace(workloads.MatmulSym(), "float a[${n}]", "float a[${"+expr+"}]", 1)
	}
	cases := []struct {
		name, src string
		opts      CompileOptions
		msg       string
	}{
		{"unknown bound", workloads.MatmulSym(), CompileOptions{Bounds: map[string]int64{"n": 8, "bogus": 3}}, "not a template parameter"},
		{"missing bound", workloads.MatmulSym(), CompileOptions{Symbolic: true}, "missing bound"},
		{"overflow", sized("n*n"), CompileOptions{Bounds: map[string]int64{"n": big}}, "overflows int64"},
		{"inexact division", sized("n/2"), CompileOptions{Bounds: map[string]int64{"n": big}}, "not an integer"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{Source: tc.src, Options: tc.opts})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.msg) {
			t.Errorf("%s: status %d body %s, want 400 naming %q", tc.name, resp.StatusCode, body, tc.msg)
		}
	}
	var sb strings.Builder
	svc.Metrics().WritePrometheus(&sb, svc.CacheStats(), svc.TemplateCacheStats(), svc.PoolStats())
	if want := fmt.Sprintf(`warpd_compile_requests_total{result="error"} %d`, len(cases)); !strings.Contains(sb.String(), want) {
		t.Errorf("metrics lack %q", want)
	}
	if tcs := svc.TemplateCacheStats(); tcs.Programs != 0 {
		t.Errorf("%d programs resident after only rejected requests", tcs.Programs)
	}
}

// TestBoundsRunMatchesConcreteRun is the wire-level differential that
// fails if substitution ever diverges from the concrete compiler: for
// each ${...} workload family, plain and pipelined, at the bound
// vectors the CLI sweep used to check, a bounds /run and a /run of the
// generator's concrete source return programs with equal
// driver.Fingerprint, equal outputs and equal cycle counts.
func TestBoundsRunMatchesConcreteRun(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	type vec = map[string]int64
	families := []struct {
		name     string
		sym      string
		concrete func(b vec) string
		sweep    []vec
	}{
		{"matmul", workloads.MatmulSym(),
			func(b vec) string { return workloads.Matmul(int(b["n"])) },
			[]vec{{"n": 8}, {"n": 20}, {"n": 33}}},
		{"conv1d", workloads.Conv1DSym(),
			func(b vec) string { return workloads.Conv1D(int(b["k"]), int(b["n"])) },
			[]vec{{"k": 9, "n": 64}, {"k": 5, "n": 40}, {"k": 11, "n": 96}}},
		{"polynomial", workloads.PolynomialSym(),
			func(b vec) string { return workloads.Polynomial(int(b["ncoef"]), int(b["npoints"])) },
			[]vec{{"ncoef": 10, "npoints": 100}, {"ncoef": 6, "npoints": 48}, {"ncoef": 12, "npoints": 72}}},
	}
	run := func(t *testing.T, what string, req RunRequest) RunResponse {
		t.Helper()
		resp, body := postJSON(t, client, ts.URL+"/run", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", what, resp.StatusCode, body)
		}
		var rr RunResponse
		decodeBody(t, body, &rr)
		return rr
	}
	for _, fam := range families {
		for _, pipeline := range []bool{false, true} {
			mode := "plain"
			if pipeline {
				mode = "pipelined"
			}
			t.Run(fam.name+"/"+mode, func(t *testing.T) {
				for _, b := range fam.sweep {
					what := boundsKey(b)
					src := fam.concrete(b)
					ref, err := warp.Compile(src, warp.Options{Pipeline: pipeline})
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					inputs := map[string][]float64{}
					for _, p := range ref.Params() {
						if !p.Out {
							arr := make([]float64, p.Size)
							for j := range arr {
								arr[j] = float64((j*7+len(p.Name))%11)/4 - 1
							}
							inputs[p.Name] = arr
						}
					}
					got := run(t, what+" bounds", RunRequest{Source: fam.sym,
						Options: CompileOptions{Pipeline: pipeline, Bounds: b}, Inputs: inputs})
					want := run(t, what+" concrete", RunRequest{Source: src,
						Options: CompileOptions{Pipeline: pipeline}, Inputs: inputs})
					gotProg, ok1 := svc.templates.Lookup(got.Program)
					wantProg, ok2 := svc.cache.Lookup(want.Program)
					if !ok1 || !ok2 {
						t.Fatalf("%s: served programs not resident (%v, %v)", what, ok1, ok2)
					}
					if gotProg.Fingerprint() != wantProg.Fingerprint() {
						t.Errorf("%s: bounds program's fingerprint differs from the concrete compile's", what)
					}
					if got.Stats.Cycles != want.Stats.Cycles || got.Stats.Backend != want.Stats.Backend {
						t.Errorf("%s: bounds run %d cycles on %s, concrete run %d on %s", what,
							got.Stats.Cycles, got.Stats.Backend, want.Stats.Cycles, want.Stats.Backend)
					}
					if !reflect.DeepEqual(got.Outputs, want.Outputs) {
						t.Errorf("%s: outputs differ", what)
					}
				}
			})
		}
	}
}

// TestCompileRejectsNestingBombs: a body far under MaxBodyBytes whose
// source nests parentheses a million deep — in a W2 expression or
// inside a ${...} placeholder — used to overflow the parser's stack,
// which no recover catches; both are ordinary 400s and the server keeps
// serving.
func TestCompileRejectsNestingBombs(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	const depth = 1 << 20
	bombs := map[string]CompileRequest{
		"w2": {Source: strings.Replace(workloads.Matmul(4), "yin + av", strings.Repeat("(", depth)+"yin + av", 1)},
		"placeholder": {Source: strings.Replace(workloads.MatmulSym(), "${n-1}", "${"+strings.Repeat("(", depth)+"n-1}", 1),
			Options: CompileOptions{Bounds: map[string]int64{"n": 4}}},
	}
	for name, req := range bombs {
		resp, body := postJSON(t, client, ts.URL+"/compile", req)
		if resp.StatusCode != http.StatusBadRequest || len(body) > 1<<10 {
			t.Errorf("%s bomb: status %d, %d-byte body, want a short 400", name, resp.StatusCode, len(body))
		}
	}
	if resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{Source: workloads.Matmul(4)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile after the bombs: status %d: %s", resp.StatusCode, body)
	}
}

// TestFabricTilesShareTemplate pins the residency policy for ragged
// tile-kernel sweeps: one kernel family served at many sizes through
// bounds requests is one template entry whose sizes evict only each
// other — zero per-shape entries in the compile cache.  Partitioned
// runs resolve their tile kernel through the same template.
func TestFabricTilesShareTemplate(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	src := workloads.MatmulSym()

	// A ragged sweep of tile-kernel sizes, all one kernel family.
	sizes := []int64{8, 14, 20, 26, 32, 38}
	keys := map[string]bool{}
	for _, n := range sizes {
		resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{
			Source:  src,
			Options: CompileOptions{Bounds: map[string]int64{"n": n}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d: status %d: %s", n, resp.StatusCode, body)
		}
		var cr CompileResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		keys[cr.Program] = true
	}
	if len(keys) != len(sizes) {
		t.Fatalf("%d distinct programs for %d sizes", len(keys), len(sizes))
	}
	tcs := svc.TemplateCacheStats()
	if tcs.Templates != 1 {
		t.Fatalf("%d templates resident after %d-size sweep, want 1 (O(1) in tile count)", tcs.Templates, len(sizes))
	}
	if entries := svc.CacheStats().Entries; entries != 0 {
		t.Fatalf("%d per-shape compile-cache entries after a bounds sweep, want 0", entries)
	}

	// A partitioned run whose tile kernel comes from the template: the
	// stitched output must match the plain-Go reference, with still only
	// the one template resident.
	const d = 16
	a, b := workloads.LargeMatmulData(d, d, d, 13)
	resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{
		Source:  src,
		Options: CompileOptions{Bounds: map[string]int64{"n": 8}},
		Inputs:  map[string][]float64{"a": a, "bmat": b},
		Partition: &PartitionJSON{
			Workload: "matmul", M: d, K: d, N: d, Arrays: 2,
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partitioned bounds run: status %d: %s", resp.StatusCode, body)
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
	if !rr.Cached {
		t.Error("partitioned run's tile kernel was not served from the template cache")
	}
	if tcs := svc.TemplateCacheStats(); tcs.Templates != 1 {
		t.Fatalf("%d templates after partitioned run, want 1", tcs.Templates)
	}
}

// tcGet compiles src at n through tc and returns the program's content
// address.
func tcGet(t *testing.T, tc *TemplateCache, src string, opts warp.Options, n int64) string {
	t.Helper()
	prog, key, _, _, err := tc.GetObserved(context.Background(), src, opts, map[string]int64{"n": n}, nil)
	if err != nil || prog == nil {
		t.Fatalf("n=%d: prog=%v err=%v", n, prog, err)
	}
	return key
}

// resident reports which of the keys tc.Lookup still finds.
func resident(tc *TemplateCache, keys ...string) []bool {
	out := make([]bool, len(keys))
	for i, k := range keys {
		_, out[i] = tc.Lookup(k)
	}
	return out
}

// TestTemplateCachePerTemplateCap pins the inner level: a template over
// its program cap loses its own least-recent program and nothing
// of any other template's.
func TestTemplateCachePerTemplateCap(t *testing.T) {
	tc := NewTemplateCache(4, 2, nil)
	src := workloads.MatmulSym()
	a8 := tcGet(t, tc, src, warp.Options{}, 8)
	a14 := tcGet(t, tc, src, warp.Options{}, 14)
	b8 := tcGet(t, tc, src, warp.Options{Pipeline: true}, 8)
	if _, ok := tc.Lookup(a8); !ok { // a8 is now newer than a14
		t.Fatal("a8 missing before the cap is reached")
	}
	a20 := tcGet(t, tc, src, warp.Options{}, 20)
	if got, want := resident(tc, a8, a14, a20, b8), []bool{true, false, true, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("resident(a8, a14, a20, b8) = %v, want %v", got, want)
	}
	if s := tc.Stats(); s.Templates != 2 || s.Programs != 3 || s.Evictions != 1 || s.Misses != 4 {
		t.Errorf("stats = %+v, want 2 templates, 3 programs, 1 eviction, 4 misses", s)
	}
}

// TestTemplateCacheTemplateEviction pins the outer level: evicting a
// template drops every program compiled from it, and each counts as
// an eviction.
func TestTemplateCacheTemplateEviction(t *testing.T) {
	tc := NewTemplateCache(1, 4, nil)
	src := workloads.MatmulSym()
	a8 := tcGet(t, tc, src, warp.Options{}, 8)
	a14 := tcGet(t, tc, src, warp.Options{}, 14)
	b8 := tcGet(t, tc, src, warp.Options{Pipeline: true}, 8)
	if got, want := resident(tc, a8, a14, b8), []bool{false, false, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("resident(a8, a14, b8) = %v, want %v", got, want)
	}
	if s := tc.Stats(); s.Templates != 1 || s.Programs != 1 || s.Evictions != 2 {
		t.Errorf("stats = %+v, want 1 template, 1 program, 2 evictions", s)
	}
}

// TestTemplateCacheOrphanedInstantiation: a compile that finishes
// after its template was evicted is returned to its caller but is not
// resident and is not an eviction.  The compile is held in flight by
// gating its load on the template's inner store.
func TestTemplateCacheOrphanedInstantiation(t *testing.T) {
	tc := NewTemplateCache(1, 4, nil)
	src := workloads.MatmulSym()
	a14 := tcGet(t, tc, src, warp.Options{}, 14)
	te, ok := tc.templates.lookup(Key(src, warp.Options{}))
	if !ok {
		t.Fatal("template not resident after its first program")
	}
	entered, release := make(chan struct{}), make(chan struct{})
	type result struct {
		prog *warp.Program
		err  error
	}
	done := make(chan result, 1)
	go func() {
		bounds := map[string]int64{"n": 8}
		prog, _, err := te.insts.get(context.Background(), boundsKey(bounds), func() (*warp.Program, error) {
			close(entered)
			<-release
			return te.tmpl.Program(bounds)
		})
		done <- result{prog, err}
	}()
	<-entered
	b8 := tcGet(t, tc, src, warp.Options{Pipeline: true}, 8) // evicts the in-flight template
	close(release)
	r := <-done
	if r.err != nil || r.prog == nil {
		t.Fatalf("orphaned compile: %v err=%v, want a working program", r.prog, r.err)
	}
	orphan := Key(src, warp.Options{}) + instSep + "n=8"
	if got, want := resident(tc, orphan, a14, b8), []bool{false, false, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("resident(orphan, a14, b8) = %v, want %v", got, want)
	}
	// The one eviction is a14, which was resident when its template went;
	// the orphan landed afterwards in a store nothing reaches.
	if s := tc.Stats(); s.Templates != 1 || s.Programs != 1 || s.Evictions != 1 || s.Misses != 3 {
		t.Errorf("stats = %+v, want 1 template, 1 program, 1 eviction, 3 misses", s)
	}
}

// TestTemplateCacheBuildsTemplateOnce: concurrent first requests for
// one template — different bound vectors, so nothing dedups them at the
// program level — build the template exactly once.
func TestTemplateCacheBuildsTemplateOnce(t *testing.T) {
	const waiters = 4
	var builds atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	tc := NewTemplateCache(4, 8, func(src string, opts warp.Options) (*warp.Template, error) {
		if builds.Add(1) == 1 {
			close(entered)
			<-release
		}
		return warp.CompileTemplate(src, opts)
	})
	src := workloads.MatmulSym()
	errs := make(chan error, waiters+1)
	get := func(ctx context.Context, n int64) {
		_, _, _, _, err := tc.GetObserved(ctx, src, warp.Options{}, map[string]int64{"n": n}, nil)
		errs <- err
	}
	go get(context.Background(), 8)
	<-entered
	for i := 0; i < waiters; i++ {
		ctx := newWaitCtx()
		go get(ctx, int64(14+6*i))
		<-ctx.called // parked on the template build
	}
	close(release)
	for i := 0; i < waiters+1; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("template built %d times for %d concurrent first requests, want 1", got, waiters+1)
	}
	if s := tc.Stats(); s.Templates != 1 || s.Programs != waiters+1 || s.Misses != waiters+1 {
		t.Errorf("stats = %+v, want 1 template, %d programs, %d misses", s, waiters+1, waiters+1)
	}
}
