package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"warp"
	"warp/internal/workloads"
)

// TestServiceSymbolicCompileAndRun drives the template path end to end:
// a symbolic compile builds the template once, later bound vectors
// instantiate from it (no further template builds), the instantiated
// program runs by content address with outputs identical to a plain
// compile of the substituted source, and the template counters show up
// on /metrics and in the flight record.
func TestServiceSymbolicCompileAndRun(t *testing.T) {
	var builds atomic.Int64
	svc := New(Config{
		Workers:  2,
		NoVerify: true, // keep the probe compiles cheap; parity is pinned in internal/symbolic
		CompileTemplate: func(src string, opts warp.Options) (*warp.Template, error) {
			builds.Add(1)
			return warp.CompileTemplate(src, opts)
		},
	})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	src := workloads.MatmulSym()

	// First instantiation pays the probe compiles for the class.
	resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{
		Source:  src,
		Options: CompileOptions{Bounds: map[string]int64{"n": 8}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("symbolic compile n=8: status %d: %s", resp.StatusCode, body)
	}
	var cr8 CompileResponse
	if err := json.Unmarshal(body, &cr8); err != nil {
		t.Fatal(err)
	}
	if cr8.Template == nil || !cr8.Template.Symbolic {
		t.Fatalf("n=8 response template detail = %+v, want symbolic", cr8.Template)
	}

	// A second bound vector in the same residue class instantiates from
	// the already-fitted closed forms — same template, new program.
	resp, body = postJSON(t, client, ts.URL+"/compile", CompileRequest{
		Source:  src,
		Options: CompileOptions{Bounds: map[string]int64{"n": 14}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("symbolic compile n=14: status %d: %s", resp.StatusCode, body)
	}
	var cr14 CompileResponse
	if err := json.Unmarshal(body, &cr14); err != nil {
		t.Fatal(err)
	}
	if cr14.Template == nil || !cr14.Template.Symbolic || cr14.Template.ClassBuilt {
		t.Fatalf("n=14 response template detail = %+v, want symbolic from the fitted class", cr14.Template)
	}
	if cr14.Program == cr8.Program {
		t.Fatal("different bound vectors got the same program content address")
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("template built %d times for one (source, options) pair, want 1", got)
	}

	// Repeat is a cache hit on the instantiated program.
	resp, body = postJSON(t, client, ts.URL+"/compile", CompileRequest{
		Source:  src,
		Options: CompileOptions{Bounds: map[string]int64{"n": 14}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat compile: status %d: %s", resp.StatusCode, body)
	}
	var crRepeat CompileResponse
	if err := json.Unmarshal(body, &crRepeat); err != nil {
		t.Fatal(err)
	}
	if !crRepeat.Cached || crRepeat.Program != cr14.Program {
		t.Fatalf("repeat compile: cached=%v program=%s, want hit on %s", crRepeat.Cached, crRepeat.Program, cr14.Program)
	}

	// The instantiated program runs by its content address, and the
	// outputs match a plain compile of the substituted source.
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
	resp, body = postJSON(t, client, ts.URL+"/run", RunRequest{Program: cr14.Program, Inputs: inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run by id: status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		got := rr.Outputs[name]
		if len(got) != len(w) {
			t.Fatalf("output %s has %d values, want %d", name, len(got), len(w))
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("output %s[%d] = %v, concrete compile says %v", name, j, got[j], w[j])
			}
		}
	}

	// /run with inline symbolic source resolves through the same
	// template cache (a hit now).
	resp, body = postJSON(t, client, ts.URL+"/run", RunRequest{
		Source:  src,
		Options: CompileOptions{Symbolic: true, Bounds: map[string]int64{"n": 14}},
		Inputs:  inputs,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run by symbolic source: status %d: %s", resp.StatusCode, body)
	}
	var rr2 RunResponse
	if err := json.Unmarshal(body, &rr2); err != nil {
		t.Fatal(err)
	}
	if !rr2.Cached || rr2.Program != cr14.Program {
		t.Fatalf("symbolic run: cached=%v program=%s, want hit on %s", rr2.Cached, rr2.Program, cr14.Program)
	}

	// Template counters are live on /metrics.
	tcs := svc.TemplateCacheStats()
	if tcs.Templates != 1 || tcs.Misses < 2 || tcs.Instantiations < 2 || tcs.Hits < 2 {
		t.Fatalf("template cache stats = %+v, want 1 template, >=2 misses/instantiations, >=2 hits", tcs)
	}
	var sb strings.Builder
	svc.Metrics().WritePrometheus(&sb, svc.CacheStats(), tcs, svc.PoolStats())
	text := sb.String()
	for _, want := range []string{
		"warpd_template_entries 1",
		"warpd_template_instantiations_total",
		"warpd_template_hits_total",
		"warpd_template_misses_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Instantiation is a compile phase: the template-instantiate series
	// must appear beside parse/cellgen in the per-phase aggregates.
	if !strings.Contains(text, `warpd_compile_phase_seconds_total{phase="template-instantiate"}`) {
		t.Error("metrics missing template-instantiate compile phase series")
	}

	// The flight recorder carries the template detail for debugging.
	resp, err2 := client.Get(ts.URL + "/debug/requests")
	if err2 != nil {
		t.Fatal(err2)
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
		if rec.Template != nil && rec.Template.Symbolic {
			found = true
			break
		}
	}
	if !found {
		t.Error("no flight record carries a symbolic template detail")
	}
}

// TestServiceSymbolicErrors pins the template path's error contract:
// bounds naming a parameter the source does not declare are a 400-class
// rejection, as is a missing bound.
func TestServiceSymbolicErrors(t *testing.T) {
	svc := New(Config{Workers: 1, NoVerify: true})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{
		Source:  workloads.MatmulSym(),
		Options: CompileOptions{Bounds: map[string]int64{"n": 8, "bogus": 3}},
	})
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("bogus bound accepted: %s", body)
	}
	resp, body = postJSON(t, client, ts.URL+"/compile", CompileRequest{
		Source:  workloads.MatmulSym(),
		Options: CompileOptions{Symbolic: true},
	})
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("missing bound accepted: %s", body)
	}
}

// TestFabricTilesShareTemplate pins the cache-shape fix for ragged
// tile-kernel sweeps: serving one kernel family at many sizes through
// the symbolic path keeps the cache O(1) in the number of sizes — one
// template, zero per-shape compile-cache entries — where the concrete
// path would cold-compile and cache every size separately.  Partitioned
// runs resolve their tile kernel through the same template.
func TestFabricTilesShareTemplate(t *testing.T) {
	svc := New(Config{Workers: 2, NoVerify: true})
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
		t.Fatalf("%d per-shape compile-cache entries after symbolic sweep, want 0", entries)
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
		t.Fatalf("partitioned symbolic run: status %d: %s", resp.StatusCode, body)
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

// tcGet instantiates src at n through tc and returns the program's
// content address.
func tcGet(t *testing.T, tc *TemplateCache, src string, opts warp.Options, n int64) string {
	t.Helper()
	prog, key, _, _, err := tc.GetObserved(context.Background(), src, opts, map[string]int64{"n": n}, nil)
	if err != nil || prog == nil {
		t.Fatalf("instantiate n=%d: prog=%v err=%v", n, prog, err)
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
// its instantiation cap loses its own least-recent program and nothing
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
// template drops every program instantiated from it, and each counts as
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

// TestTemplateCacheOrphanedInstantiation: an instantiation that
// finishes after its template was evicted is returned to its caller but
// is not resident and is not an eviction.  The instantiation is held in
// flight by gating its load on the template's inner store.
func TestTemplateCacheOrphanedInstantiation(t *testing.T) {
	tc := NewTemplateCache(1, 4, nil)
	src := workloads.MatmulSym()
	a14 := tcGet(t, tc, src, warp.Options{}, 14)
	te, ok := tc.templates.lookup(Key(src, warp.Options{}))
	if !ok {
		t.Fatal("template not resident after its first instantiation")
	}
	entered, release := make(chan struct{}), make(chan struct{})
	type result struct {
		inst instance
		err  error
	}
	done := make(chan result, 1)
	go func() {
		bounds := map[string]int64{"n": 8}
		inst, _, err := te.insts.get(context.Background(), boundsKey(bounds), func() (instance, error) {
			close(entered)
			<-release
			return tc.instantiate(te, bounds, nil)
		})
		done <- result{inst, err}
	}()
	<-entered
	b8 := tcGet(t, tc, src, warp.Options{Pipeline: true}, 8) // evicts the in-flight template
	close(release)
	r := <-done
	if r.err != nil || r.inst.prog == nil {
		t.Fatalf("orphaned instantiation: %+v err=%v, want a working program", r.inst, r.err)
	}
	orphan := Key(src, warp.Options{}) + instSep + "n=8"
	if got, want := resident(tc, orphan, a14, b8), []bool{false, false, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("resident(orphan, a14, b8) = %v, want %v", got, want)
	}
	// The one eviction is a14, which was resident when its template went;
	// the orphan landed afterwards in a store nothing reaches.
	if s := tc.Stats(); s.Templates != 1 || s.Programs != 1 || s.Evictions != 1 || s.Instantiations+s.Fallbacks != 3 {
		t.Errorf("stats = %+v, want 1 template, 1 program, 1 eviction, 3 served misses", s)
	}
}

// TestTemplateCacheBuildsTemplateOnce: concurrent first requests for
// one template — different bound vectors, so nothing dedups them at the
// instantiation level — build the template exactly once.
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
