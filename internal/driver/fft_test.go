package driver

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"warp/internal/interp"
	"warp/internal/workloads"
)

// TestFFTEndToEnd compiles and simulates the FFT workload and checks
// the spectrum against a direct DFT.
func TestFFTEndToEnd(t *testing.T) {
	for _, n := range []int{8, 32, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, 2*n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		inputs := map[string][]float64{
			"twid": workloads.FFTTwiddles(n),
			"x":    x,
		}
		for _, opts := range []Options{{}, {Pipeline: true}} {
			c, err := Compile(workloads.FFT(n), opts)
			if err != nil {
				t.Fatalf("n=%d: compile: %v", n, err)
			}
			got, _, err := RunWith(c, inputs, RunOptions{})
			if err != nil {
				t.Fatalf("n=%d: simulate: %v", n, err)
			}
			want := workloads.FFTRef(x)
			for i := range want {
				if math.Abs(got["y"][i]-want[i]) > 1e-6*float64(n) {
					t.Fatalf("n=%d: y[%d] = %v, DFT says %v", n, i, got["y"][i], want[i])
				}
			}
			// And against the interpreter exactly.
			ref, err := interp.Run(c.Info, inputs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref["y"] {
				if !approxEqual(got["y"][i], ref["y"][i]) {
					t.Fatalf("n=%d: y[%d]: simulator %v vs interpreter %v", n, i, got["y"][i], ref["y"][i])
				}
			}
		}
	}
}

// TestFFTPaperSizeCompiles: the 1024-point configuration (the §2
// headline) compiles; the deep bit-reversal nest exercises 11-level IU
// induction chains.
func TestFFTPaperSizeCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c, err := Compile(workloads.FFTPaper(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cell.NumInstrs() == 0 {
		t.Fatal("no code generated")
	}
	// 1024 complex points: 2048 data + 1024 twiddle words of the 4K
	// cell memory.
	t.Logf("fft1024: %d cell instrs, %d IU instrs, %d IU regs, %d table words",
		c.Cell.NumInstrs(), c.IU.NumInstrs(), c.IUGen.AddrRegs, c.IUGen.TableEntries)
}

// TestFFTPipelineBackoff: at 1024 points the overlapped schedule
// demands more address bandwidth than the IU's 16 registers and 32K
// table provide, so a Pipeline request compiles with the plain
// schedule and reports the backoff.
func TestFFTPipelineBackoff(t *testing.T) {
	c, err := Compile(workloads.FFTPaper(), Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if !c.PipelineBackoff {
		t.Error("expected a pipeline backoff at 1024 points")
	}
	if c.CellGen.PipelinedLoops != 0 {
		t.Error("backoff must produce the plain schedule")
	}
	// Smaller transforms pipeline without backoff.
	c, err = Compile(workloads.FFT(64), Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.PipelineBackoff || c.CellGen.PipelinedLoops == 0 {
		t.Errorf("64-point FFT should pipeline cleanly (backoff=%v, loops=%d)",
			c.PipelineBackoff, c.CellGen.PipelinedLoops)
	}
}

// TestBackoffReusesFrontEnd: the plain retry after a failed pipelined
// attempt runs the back end of stages only, on the same compilation,
// after the pipelined code generator has already been through its
// flowgraph — and must produce, back-off fields aside, exactly what a
// plain compile from source produces.  The failed attempt is timed, in
// its place: a pipeline-backoff record before the retry's cellgen.
func TestBackoffReusesFrontEnd(t *testing.T) {
	opts := Options{Pipeline: true, Verify: true}
	plain := Options{Verify: true}
	retried, err := Compile(workloads.FFTPaper(), opts)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := Compile(workloads.FFTPaper(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if !retried.PipelineBackoff || !strings.Contains(retried.BackoffReason, "pre-stored addresses exceed") {
		t.Fatalf("backoff=%v reason %q", retried.PipelineBackoff, retried.BackoffReason)
	}
	scratch.PipelineBackoff, scratch.BackoffReason = true, retried.BackoffReason
	if Fingerprint(retried) != Fingerprint(scratch) {
		t.Error("fft1024: the retried artifact differs from a plain compile from source")
	}
	var names []string
	for i, p := range retried.Phases {
		names = append(names, p.Name)
		if p.Name == "pipeline-backoff" {
			if p.Seconds <= 0 || p.Size != 0 || p.Note != retried.BackoffReason {
				t.Errorf("pipeline-backoff record %+v, want the failed attempt's time, size 0 and the reason", p)
			}
			if next := retried.Phases[i+1]; next.Name != "cellgen" || next.Start < p.Start+p.Seconds {
				t.Errorf("pipeline-backoff record %+v is followed by %+v, want the retry's cellgen after it", p, next)
			}
		}
	}
	if got, want := strings.Join(names, " "), "parse sema flowgraph optimize commgraph pipeline-backoff cellgen iugen skew hostgen verify"; got != want {
		t.Errorf("phases %q, want %q", got, want)
	}

	// The same on programs whose pipelined attempt succeeds: the back end
	// twice over one front end.
	for name, src := range map[string]string{"matmul32": workloads.Matmul(32), "colorseg": workloads.ColorSeg(64, 64, 10)} {
		c, t0 := &Compiled{Src: src}, time.Now()
		for _, run := range []struct {
			stages []stage
			opts   Options
		}{{stages[:backEnd], opts}, {stages[backEnd:], opts}, {stages[backEnd:], plain}} {
			if err := c.run(run.stages, run.opts, t0); err != nil {
				t.Fatal(err)
			}
		}
		scratch, err := Compile(src, plain)
		if err != nil {
			t.Fatal(err)
		}
		if Fingerprint(c) != Fingerprint(scratch) {
			t.Errorf("%s: plain code generated after a pipelined attempt differs from a plain compile from source", name)
		}
	}
}
