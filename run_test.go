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
// single *Program to every request for the same content address.  The
// goroutines start together on a fresh program, so its first use — the
// load both executors read and the fast plan — is raced too, and each
// must match a separately compiled program run alone.  Run under -race
// (CI does) this doubles as the data-race proof.
func TestConcurrentRun(t *testing.T) {
	inputs := polyInputs(100)
	compile := func() *warp.Program {
		prog, err := warp.Compile(workloads.PolynomialPaper(), warp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	want, wantStats, err := compile().Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	prog := compile()

	const goroutines = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	outs := make([]map[string][]float64, goroutines)
	errs := make([]error, goroutines)
	stats := make([]*warp.RunStats, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			outs[g], stats[g], errs[g] = prog.Run(inputs)
		}(g)
	}
	close(start)
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if stats[g].Cycles != wantStats.Cycles || stats[g].Backend != wantStats.Backend {
			t.Errorf("goroutine %d: %d cycles on %s, want %d on %s",
				g, stats[g].Cycles, stats[g].Backend, wantStats.Cycles, wantStats.Backend)
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
