package warp_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"warp"
	"warp/internal/workloads"
)

// polyInputs builds deterministic inputs for the Figure 4-2 polynomial
// program (10 coefficients, n data points).
func polyInputs(n int) map[string][]float64 {
	z := make([]float64, n)
	c := make([]float64, 10)
	for i := range z {
		z[i] = float64(i%7)/4 - 0.5
	}
	for i := range c {
		c[i] = float64(i+1) / 8
	}
	return map[string][]float64{"z": z, "c": c}
}

// TestConcurrentRun verifies the documented contract that one compiled
// *Program is safe for concurrent Run calls: the cache layer hands a
// single *Program to every request for the same content address.  Run
// under -race (CI does) this doubles as the data-race proof.
func TestConcurrentRun(t *testing.T) {
	prog, err := warp.Compile(workloads.PolynomialPaper(), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := polyInputs(100)
	want, wantStats, err := prog.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	outs := make([]map[string][]float64, goroutines)
	errs := make([]error, goroutines)
	cycles := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out, rs, err := prog.Run(inputs)
			if err != nil {
				errs[g] = err
				return
			}
			outs[g] = out
			cycles[g] = rs.Cycles
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if cycles[g] != wantStats.Cycles {
			t.Errorf("goroutine %d: %d cycles, want %d", g, cycles[g], wantStats.Cycles)
		}
		for name, w := range want {
			got := outs[g][name]
			if len(got) != len(w) {
				t.Fatalf("goroutine %d: %s has %d values, want %d", g, name, len(got), len(w))
			}
			for i := range w {
				if got[i] != w[i] {
					t.Fatalf("goroutine %d: %s[%d] = %v, want %v", g, name, i, got[i], w[i])
				}
			}
		}
	}
}

// TestRunContextCancel proves a cancelled context aborts the run with
// an error wrapping the cause instead of running to completion.
func TestRunContextCancel(t *testing.T) {
	prog, err := warp.Compile(workloads.PolynomialPaper(), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: the first poll (cycle 0) must see it
	_, _, err = prog.RunWith(warp.RunConfig{Context: ctx}, polyInputs(100))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunWith with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestRunContextDeadline proves an expired deadline surfaces as
// context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	prog, err := warp.Compile(workloads.PolynomialPaper(), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err = prog.RunWith(warp.RunConfig{Context: ctx}, polyInputs(100))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunWith with expired deadline: err = %v, want DeadlineExceeded", err)
	}
}

// TestRunMaxCycles proves the configurable livelock guard fires as the
// typed ErrLivelock.
func TestRunMaxCycles(t *testing.T) {
	prog, err := warp.Compile(workloads.PolynomialPaper(), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = prog.RunWith(warp.RunConfig{MaxCycles: 10}, polyInputs(100))
	if !errors.Is(err, warp.ErrLivelock) {
		t.Fatalf("RunWith(MaxCycles: 10): err = %v, want ErrLivelock", err)
	}
	// With a generous guard the same run completes.
	if _, _, err := prog.RunWith(warp.RunConfig{MaxCycles: 1 << 24}, polyInputs(100)); err != nil {
		t.Fatalf("RunWith(MaxCycles: 1<<24): %v", err)
	}
}
