package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeSeconds scales every workload to about a fiftieth of its frozen
// operation count.
const smokeSeconds = "0.12"

// TestManifestMatches fails when BENCHMARK.json and the tables it is
// rendered from (benchmark -manifest) have drifted apart, or when the
// tables leave the limits of the benchmark contract.
func TestManifestMatches(t *testing.T) {
	var want bytes.Buffer
	if code := run([]string{"-manifest"}, &want, os.Stderr); code != 0 {
		t.Fatalf("-manifest exited %d", code)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}

	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric or workload name %q is malformed or used twice", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: malformed unit %q", n, u)
		}
	}
	for _, w := range m.Workloads {
		check(w.Name, "-")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range m.PerLayer {
		check(d.Name, d.Unit)
	}
}

// TestSmoke runs every workload, untraced and traced, at a fiftieth of
// its length: every check must pass, every pass must report exactly
// the declared metric set with the declared units, and the span log
// must be a well-formed forest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the full-size programs")
	}
	dir := t.TempDir()
	var stdout bytes.Buffer
	if code := run([]string{"-seed", "1", "-seconds", smokeSeconds, "-out", dir}, &stdout, os.Stderr); code != 0 {
		t.Fatalf("benchmark exited %d:\n%s", code, stdout.String())
	}

	var led ledger
	data, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &led); err != nil {
		t.Fatal(err)
	}
	for _, w := range suite {
		for key, decls := range map[string][]decl{w.name + "/untraced": endToEnd, w.name + "/traced": perLayer} {
			res, ok := led.Results[key]
			if !ok {
				t.Errorf("%s: no result", key)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", key, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s: %d metrics reported, %d declared", key, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s: declared metric %s not reported", key, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s: %s reported in %q, declared in %q", key, d.Name, m.Unit, d.Unit)
				}
			}
		}
		// The end-to-end metrics may never read 0.
		for name, m := range led.Results[w.name+"/untraced"].Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v", w.name, name, m.Value)
			}
		}
		// Every workload fills its own layer's group and the tracer's cost.
		if led.Results[w.name+"/traced"].Metrics["trace.overhead_ratio"].Value <= 0 {
			t.Errorf("%s: no trace.overhead_ratio", w.name)
		}
	}
	if c := led.Results["compile-cold/traced"].Metrics["driver.trace_coverage_ratio"].Value; c < 0.9 {
		t.Errorf("compile-cold: the staged replay's spans cover %.2f of its wall, want at least 0.9", c)
	}

	// The span log: Chrome trace-event JSON in which every span is a root
	// or names a parent that exists.
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Args struct {
				SpanID *int `json:"span_id"`
				Parent *int `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	data, err = os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	ids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Args.SpanID != nil {
			ids[*ev.Args.SpanID] = true
		}
	}
	if len(ids) < 100 {
		t.Fatalf("trace.json holds %d spans", len(ids))
	}
	roots := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch p := ev.Args.Parent; {
		case p == nil:
			t.Errorf("span %q has no parent field", ev.Name)
		case *p == -1:
			roots++
		case !ids[*p]:
			t.Errorf("span %q names parent %d, which is not in the log", ev.Name, *p)
		}
	}
	if roots == 0 {
		t.Error("no root spans")
	}
}

// TestDeterministic runs the cheapest library workload twice with one
// seed: every exact end-to-end metric and every count-type per-layer
// metric must repeat exactly (allocation counts, which the collector's
// timing moves, are exempt).
func TestDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload four times")
	}
	w, _ := findWorkload("fabric-farm")
	exact := map[string]bool{"count": true, "words": true, "cycles": true}
	for _, traced := range []bool{false, true} {
		a, err := runWorkload(w, 7, 0.2, traced, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(w, 7, 0.2, traced, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range a.Metrics {
			if exact[m.Unit] && !strings.Contains(name, "mallocs") && b.Metrics[name].Value != m.Value {
				t.Errorf("traced=%v: %s read %v, then %v", traced, name, m.Value, b.Metrics[name].Value)
			}
		}
	}
}
