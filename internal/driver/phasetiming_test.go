package driver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"warp/internal/obs"
	"warp/internal/workloads"
)

// TestPhaseTimingSoundness pins the phase-timing contract: phase stats
// feed warpd's compile_phase_seconds_total counter and the Chrome
// compiler track, so they must not double-count.  A compilation is one
// goroutine, so the contract is global: each phase is recorded once, no
// two phases of one compile overlap, and their durations sum to at most
// the compile's wall time — alone (workers=1) and with four callers
// compiling at once (workers=4), the way warpd's pool calls the compiler.
// fft1024's pipelined attempt backs off: its pipeline-backoff record
// spans the failed attempt and must not overlap the retry.
func TestPhaseTimingSoundness(t *testing.T) {
	for _, callers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", callers), func(t *testing.T) {
			for _, src := range []string{workloads.ColorSegPaper(), workloads.FFTPaper()} {
				var wg sync.WaitGroup
				for caller := 0; caller < callers; caller++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						start := time.Now()
						c, err := Compile(src, Options{Pipeline: true})
						if err != nil {
							t.Error(err)
							return
						}
						checkPhaseTiming(t, c.Phases, time.Since(start).Seconds())
					}()
				}
				wg.Wait()
			}
		})
	}
}

// checkPhaseTiming checks one compile's phase records, in execution
// order, against the wall time of the Compile call that produced them.
func checkPhaseTiming(t *testing.T, phases []obs.PhaseStat, wall float64) {
	// A small epsilon absorbs float rounding of the offsets.
	const eps = 1e-9
	seen := map[string]bool{}
	var sum, end float64
	for _, p := range phases {
		if seen[p.Name] {
			t.Errorf("phase %q recorded twice; the phase counter would double-count", p.Name)
		}
		seen[p.Name] = true
		if p.Seconds < 0 {
			t.Errorf("phase %q: negative duration %v", p.Name, p.Seconds)
		}
		if p.Start < end-eps {
			t.Errorf("phase %q starts at %fs, before the previous phase ended at %fs", p.Name, p.Start, end)
		}
		end = p.Start + p.Seconds
		sum += p.Seconds
	}
	if sum > wall+eps {
		t.Errorf("phase durations sum to %fs, compile wall was %fs — double-counted time", sum, wall)
	}
}

// BenchmarkCompileSerial tracks whole compiles of two paper workloads so
// a superlinear phase regression is caught by `go test -bench` without
// the full warpbench suite.
func BenchmarkCompileSerial(b *testing.B) {
	for _, c := range []struct {
		name string
		src  string
	}{
		{"polynomial", workloads.PolynomialPaper()},
		{"mandelbrot", workloads.MandelbrotPaper()},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(c.src, Options{Pipeline: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
