package warp_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"warp"
	"warp/internal/workloads"
)

// TestSourceProfileExactPolynomial is the acceptance check on the
// profiler's exactness guarantee, on the Figure 4-2 golden program
// (polynomial evaluation): the per-source-line cycle totals sum
// exactly to the simulator's total busy+stall cycles over all cells —
// no unattributed cycles — and the folded stacks account for the same
// total.
func TestSourceProfileExactPolynomial(t *testing.T) {
	prog, err := warp.Compile(workloads.Polynomial(10, 100), warp.Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]float64{"z": make([]float64, 100), "c": make([]float64, 10)}
	_, rs, err := prog.RunWith(warp.RunConfig{Profile: true}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cycles != 225 {
		t.Errorf("profiling perturbed the run: %d cycles, want the 225 baseline", rs.Cycles)
	}
	sp := rs.Source
	if sp == nil {
		t.Fatal("RunConfig.Profile set but RunStats.Source is nil")
	}

	// The simulator's ground truth: busy+starved+bubble over all cells.
	var simTotal int64
	for i := range rs.Profile.Cell {
		simTotal += rs.Profile.Cell[i].Active()
	}
	if simTotal == 0 {
		t.Fatal("run recorded no active cycles")
	}
	var lineTotal int64
	for i := range sp.Lines {
		lineTotal += sp.Lines[i].Total()
	}
	if lineTotal != simTotal {
		t.Errorf("per-line totals sum to %d, simulator busy+stall is %d (unattributed cycles)", lineTotal, simTotal)
	}
	if sp.Attributed() != simTotal {
		t.Errorf("Attributed() = %d, want %d", sp.Attributed(), simTotal)
	}
	var stackTotal int64
	for i := range sp.Stacks {
		stackTotal += sp.Stacks[i].Cycles
	}
	if stackTotal != simTotal {
		t.Errorf("folded stacks sum to %d, want %d", stackTotal, simTotal)
	}

	// The profile must attribute to real source lines, not only the
	// synthetic preamble bucket.
	real := 0
	for i := range sp.Lines {
		if sp.Lines[i].Line > 0 && sp.Lines[i].Total() > 0 {
			real++
		}
	}
	if real < 2 {
		t.Errorf("only %d real source lines attributed:\n%s", real, sp.Report())
	}

	rep := sp.Report()
	for _, want := range []string{"source profile:", "busy", "starved", "bubble"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}

	var folded bytes.Buffer
	if err := sp.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(folded.String()), "\n") {
		if line == "" {
			continue
		}
		sep := strings.LastIndexByte(line, ' ')
		if sep < 1 {
			t.Fatalf("folded line has no count: %q", line)
		}
		if !strings.Contains(line[:sep], ";") && !strings.HasPrefix(line[:sep], "poly") {
			t.Errorf("folded stack has no frames: %q", line)
		}
	}
}

// TestSourceProfileNeutral proves profiling never changes machine
// behavior: every pinned obs baseline holds with Profile on.
func TestSourceProfileNeutral(t *testing.T) {
	for _, j := range obsJobs {
		t.Run(j.name, func(t *testing.T) {
			prog, err := warp.Compile(j.src, warp.Options{Pipeline: j.pipe})
			if err != nil {
				t.Fatal(err)
			}
			_, rs, err := prog.RunWith(warp.RunConfig{Profile: true}, j.inputs())
			if err != nil {
				t.Fatal(err)
			}
			if rs.Cycles != j.cycles {
				t.Errorf("cycles with profiling = %d, want %d (baseline)", rs.Cycles, j.cycles)
			}
			if rs.Source == nil || rs.Source.Attributed() == 0 {
				t.Error("no source attribution recorded")
			}
		})
	}
}

// TestPprofRoundTrip checks the hand-rolled pprof encoding: the output
// is valid gzip, and — when the Go toolchain is on PATH — `go tool
// pprof -top` accepts it and shows the module frame, the same check CI
// runs.
func TestPprofRoundTrip(t *testing.T) {
	prog, err := warp.Compile(workloads.Polynomial(10, 100), warp.Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	_, rs, err := prog.RunWith(warp.RunConfig{Profile: true}, map[string][]float64{"z": make([]float64, 100), "c": make([]float64, 10)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.Source.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("pprof output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gzip stream corrupt: %v", err)
	}
	if len(raw) < 64 {
		t.Fatalf("suspiciously small profile: %d bytes", len(raw))
	}

	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; CI runs the pprof round-trip")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cycles.pb.gz")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-top", path)
	cmd.Env = append(os.Environ(), "PPROF_NO_BROWSER=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "poly") {
		t.Errorf("pprof top does not show the module frame:\n%s", out)
	}
}

// TestSchedCounters checks the compiler-introspection half on the four
// BENCH workloads: every compilation exports scheduler counters, and
// colorseg — the compile-time outlier — is identifiable from the data
// (its modulo-scheduling search dwarfs the others').
func TestSchedCounters(t *testing.T) {
	jobs := []struct {
		name string
		src  string
	}{
		{"1d-conv", workloads.Conv1D(9, 512)},
		{"binop", workloads.Binop(512, 512)},
		{"colorseg", workloads.ColorSeg(512, 512, 10)},
		{"polynomial", workloads.Polynomial(10, 100)},
	}
	placements := map[string]int64{}
	for _, j := range jobs {
		prog, err := warp.Compile(j.src, warp.Options{Pipeline: true})
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		sched := prog.Sched()
		if sched == nil {
			t.Fatalf("%s: no scheduler profile", j.name)
		}
		tot := sched.Totals()
		if tot.Loops == 0 {
			t.Errorf("%s: no loops recorded", j.name)
		}
		if tot.Attempts == 0 || tot.Placements == 0 {
			t.Errorf("%s: modulo scheduler recorded no search work: %+v", j.name, tot)
		}
		placements[j.name] = tot.Placements
		if rep := sched.Report(); !strings.Contains(rep, "scheduler:") {
			t.Errorf("%s: malformed sched report:\n%s", j.name, rep)
		}
		// The cellgen phase note carries the counters into the span data.
		found := false
		for _, ph := range prog.Phases() {
			if ph.Name == "cellgen" && strings.Contains(ph.Note, "placements") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: cellgen phase note lacks scheduler counters", j.name)
		}
	}
	if placements["colorseg"] <= placements["polynomial"] ||
		placements["colorseg"] <= placements["1d-conv"] {
		t.Errorf("colorseg's scheduler search (%d placements) should dominate polynomial (%d) and 1d-conv (%d)",
			placements["colorseg"], placements["polynomial"], placements["1d-conv"])
	}
}

// TestPartitionedSourceProfile checks fabric aggregation end to end: a
// profiled partitioned run merges every tile's exact profile into
// FabricStats.Source.
func TestPartitionedSourceProfile(t *testing.T) {
	prog, err := warp.Compile(workloads.MatmulRect(4, 4, 4), warp.Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	m, k, n := 8, 4, 8
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	for i := range a {
		a[i] = float64(i % 7)
	}
	for i := range b {
		b[i] = float64(i % 5)
	}
	_, fs, err := prog.RunPartitioned(warp.RunConfig{Arrays: 2, Profile: true},
		warp.MatmulProblem(m, k, n, a, b))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Source == nil {
		t.Fatal("profiled partitioned run has no aggregate source profile")
	}
	if fs.Source.Attributed() == 0 || len(fs.Source.Lines) == 0 {
		t.Errorf("empty aggregate profile: %+v", fs.Source)
	}
	if fs.Source.Cycles != fs.AggregateCycles {
		t.Errorf("aggregate profile cycles %d != fabric aggregate %d", fs.Source.Cycles, fs.AggregateCycles)
	}

	// Unprofiled runs must not grow a profile.
	_, fs2, err := prog.RunPartitioned(warp.RunConfig{Arrays: 2},
		warp.MatmulProblem(m, k, n, a, b))
	if err != nil {
		t.Fatal(err)
	}
	if fs2.Source != nil {
		t.Error("unprofiled run grew a source profile")
	}
}
