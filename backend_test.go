package warp_test

// Backend-selection contract tests at the public API surface: the
// verified fast executor and the cycle-accurate simulator must be
// interchangeable (bit-identical outputs, exactly equal modeled
// cycles), selection must be explicit in RunStats.Backend, and both
// backends must honor context deadlines at a bounded stride.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"warp"
	"warp/internal/workloads"
)

// matmulInputs builds deterministic inputs for workloads.Matmul(n).
func matmulInputs(n int) map[string][]float64 {
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%13)/4 - 1.5
		b[i] = float64((i*7)%11)/8 - 0.5
	}
	return map[string][]float64{"a": a, "bmat": b}
}

// TestBackendEquivalence pins the central contract: for a verified
// program, an explicit sim run and an explicit fast run produce
// bit-identical outputs and exactly equal cycle counts, and each run
// records which backend produced it.
func TestBackendEquivalence(t *testing.T) {
	const n = 8
	prog, err := warp.Compile(workloads.Matmul(n), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := matmulInputs(n)

	simOut, simStats, err := prog.RunWith(warp.RunConfig{Backend: warp.BackendSim}, inputs)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	if simStats.Backend != warp.BackendSim {
		t.Errorf("sim run recorded backend %q", simStats.Backend)
	}

	fastOut, fastStats, err := prog.RunWith(warp.RunConfig{Backend: warp.BackendFast}, inputs)
	if err != nil {
		t.Fatalf("fast run: %v", err)
	}
	if fastStats.Backend != warp.BackendFast {
		t.Errorf("fast run recorded backend %q", fastStats.Backend)
	}

	if fastStats.Cycles != simStats.Cycles {
		t.Errorf("cycles diverge: fast %d, sim %d", fastStats.Cycles, simStats.Cycles)
	}
	if fastStats.AddUtilization != simStats.AddUtilization || fastStats.MulUtilization != simStats.MulUtilization {
		t.Errorf("utilization diverges: fast %v/%v, sim %v/%v",
			fastStats.AddUtilization, fastStats.MulUtilization,
			simStats.AddUtilization, simStats.MulUtilization)
	}
	for name, sv := range simOut {
		fv := fastOut[name]
		if len(fv) != len(sv) {
			t.Fatalf("%s: fast has %d values, sim %d", name, len(fv), len(sv))
		}
		for i := range sv {
			if math.Float64bits(fv[i]) != math.Float64bits(sv[i]) {
				t.Fatalf("%s[%d] diverges: fast %v, sim %v", name, i, fv[i], sv[i])
			}
		}
	}

	// The reference answer, for good measure.
	want := workloads.MatmulRef(inputs["a"], inputs["bmat"], n)
	for i, w := range want {
		if math.Abs(fastOut["c"][i]-w) > 1e-9 {
			t.Fatalf("c[%d] = %v, reference %v", i, fastOut["c"][i], w)
		}
	}
}

// TestBackendAuto: a run with no observability requested runs fast;
// requesting a source profile falls back to the simulator.
func TestBackendAuto(t *testing.T) {
	prog, err := warp.Compile(workloads.Matmul(8), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := matmulInputs(8)

	if _, rs, err := prog.Run(inputs); err != nil {
		t.Fatal(err)
	} else if rs.Backend != warp.BackendFast {
		t.Errorf("auto run used backend %q, want %q", rs.Backend, warp.BackendFast)
	}
	if _, rs, err := prog.RunWith(warp.RunConfig{Profile: true}, inputs); err != nil {
		t.Fatal(err)
	} else if rs.Backend != warp.BackendSim {
		t.Errorf("profiled auto run used backend %q, want %q", rs.Backend, warp.BackendSim)
	}
}

// TestBackendUnknown rejects backend names outside {auto, sim, fast}.
func TestBackendUnknown(t *testing.T) {
	prog, err := warp.Compile(workloads.Matmul(8), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prog.RunWith(warp.RunConfig{Backend: "turbo"}, matmulInputs(8)); err == nil {
		t.Fatal("unknown backend name accepted")
	}
}

// TestBackendDeadline is the cancellation-granularity regression test:
// a 1ms deadline must cancel a large matmul on BOTH backends — each
// polls its context at a bounded stride, so an expired deadline stops
// the run at the next poll rather than after the full workload.
func TestBackendDeadline(t *testing.T) {
	const n = 16
	prog, err := warp.Compile(workloads.Matmul(n), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := matmulInputs(n)
	for _, backend := range []string{warp.BackendSim, warp.BackendFast} {
		t.Run(backend, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			// Let the deadline lapse before launching, so the abort is
			// deterministic regardless of machine speed: the backend's
			// first context poll must see the expiry and stop.
			<-ctx.Done()
			_, _, err := prog.RunWith(warp.RunConfig{Context: ctx, Backend: backend}, inputs)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("backend %s: error %v does not wrap context.DeadlineExceeded", backend, err)
			}
		})
	}
}
