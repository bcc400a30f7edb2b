package driver

import (
	"math/rand"
	"testing"

	"warp/internal/mcode"
	"warp/internal/workloads"
)

// TestGeneratedCodeStructure runs the microcode validators and the
// cell/IU cross-checks over every workload under every configuration:
//
//   - the cell program and IU program are individually well formed;
//   - the IU emits exactly as many addresses as the cells consume, and
//     exactly one loop signal per loop boundary the cells cross;
//   - the IU program is at least as long as the cell program only by
//     its prologue (lock-step mirroring).
func TestGeneratedCodeStructure(t *testing.T) {
	srcs := map[string]string{
		"polynomial": workloads.Polynomial(10, 40),
		"conv1d":     workloads.Conv1D(9, 48),
		"binop":      workloads.Binop(8, 8),
		"colorseg":   workloads.ColorSeg(6, 6, 10),
		"mandelbrot": workloads.Mandelbrot(16, 4),
		"matmul":     workloads.Matmul(8),
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		src, _ := workloads.RandomProgram(rng)
		srcs[string(rune('a'+i))+"-random"] = src
	}
	for name, src := range srcs {
		for _, opts := range []Options{
			{},
			{NoOptimize: true},
			{Pipeline: true},
		} {
			c, err := Compile(src, opts)
			if err != nil {
				t.Fatalf("%s (%+v): compile: %v", name, opts, err)
			}
			if c.Verified == nil {
				t.Fatalf("%s (%+v): no verification report", name, opts)
			}
			if err := mcode.ValidateCell(c.Cell); err != nil {
				t.Errorf("%s: cell program invalid: %v", name, err)
			}
			if err := mcode.ValidateIU(c.IU); err != nil {
				t.Errorf("%s: IU program invalid: %v", name, err)
			}
			cc, _ := mcode.CountCell(c.Cell)
			ic, _ := mcode.CountIU(c.IU)
			if cc.AdrPops != ic.AdrOuts {
				t.Errorf("%s: cells pop %d addresses, IU emits %d", name, cc.AdrPops, ic.AdrOuts)
			}
			if cc.Signals != ic.Signals {
				t.Errorf("%s: cells cross %d loop boundaries, IU emits %d signals", name, cc.Signals, ic.Signals)
			}
			if ic.TableOuts != int64(len(c.IU.Table)) {
				t.Errorf("%s: IU reads %d table words, table holds %d", name, ic.TableOuts, len(c.IU.Table))
			}
			// Lock-step mirroring: the IU's main program matches the
			// cell program cycle for cycle, preceded only by the
			// register-initialization prologue.
			if got, want := ic.Cycles, c.Cell.Cycles()+c.IUGen.Prologue; got != want {
				t.Errorf("%s: IU runs %d cycles, want %d (cell %d + prologue %d)",
					name, got, want, c.Cell.Cycles(), c.IUGen.Prologue)
			}
			// Host program covers the boundary traffic.
			var hostIn, hostOut int64
			for _, seq := range c.Host.In {
				hostIn += seq.Words()
			}
			for _, seq := range c.Host.Out {
				hostOut += seq.Words()
			}
			var recvs, sends int64
			for _, n := range cc.Recv {
				recvs += n
			}
			for _, n := range cc.Send {
				sends += n
			}
			if hostIn != recvs || hostOut != sends {
				t.Errorf("%s: host feeds %d/%d words, cells need %d/%d", name, hostIn, hostOut, recvs, sends)
			}
		}
	}
}

// TestPipelinedLoopStructure checks the prologue/kernel/epilogue shape
// of a software-pipelined loop: total dynamic I/O equals the plain
// build's.
func TestPipelinedLoopStructure(t *testing.T) {
	src := workloads.Polynomial(10, 100)
	plain, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	piped, err := Compile(src, Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := mcode.CountCell(plain.Cell)
	qc, _ := mcode.CountCell(piped.Cell)
	for _, ch := range []rune{'X', 'Y'} {
		_ = ch
	}
	if pc.Recv[0] != qc.Recv[0] || pc.Recv[1] != qc.Recv[1] ||
		pc.Send[0] != qc.Send[0] || pc.Send[1] != qc.Send[1] {
		t.Errorf("pipelining changed dynamic I/O counts: %+v vs %+v", pc, qc)
	}
	if qc.AdrPops != pc.AdrPops {
		t.Errorf("pipelining changed memory reference count: %d vs %d", qc.AdrPops, pc.AdrPops)
	}
	if piped.Cell.Cycles() >= plain.Cell.Cycles() {
		t.Errorf("pipelining did not shorten the program: %d vs %d",
			piped.Cell.Cycles(), plain.Cell.Cycles())
	}
}

// TestPipelinedOutputsValidated pins a past gap: the validator and
// verifier sweeps used to cover only plain schedules, so a malformed
// pipelined schedule could slip through.  For workloads known to
// pipeline successfully, the Pipeline+Verify build must actually use
// the overlapped schedule (no silent backoff), pass both structural
// validators, and carry a verification report.
func TestPipelinedOutputsValidated(t *testing.T) {
	for name, src := range map[string]string{
		"polynomial": workloads.Polynomial(10, 100),
		"conv1d":     workloads.Conv1D(9, 48),
	} {
		c, err := Compile(src, Options{Pipeline: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.PipelineBackoff {
			t.Fatalf("%s: pipelining backed off: %s", name, c.BackoffReason)
		}
		if c.CellGen.PipelinedLoops == 0 {
			t.Fatalf("%s: no loop was pipelined; this test must exercise the overlapped schedule", name)
		}
		if err := mcode.ValidateCell(c.Cell); err != nil {
			t.Errorf("%s: pipelined cell program invalid: %v", name, err)
		}
		if err := mcode.ValidateIU(c.IU); err != nil {
			t.Errorf("%s: pipelined IU program invalid: %v", name, err)
		}
		if c.Verified == nil {
			t.Errorf("%s: pipelined build has no verification report", name)
		}
	}
}

// TestRegisterPressureRejected: a block needing more temporaries than
// the register file must fail with a clear error, not silently corrupt.
func TestRegisterPressureRejected(t *testing.T) {
	// 70 live receives before any send exhausts the 64-register file.
	src := `
module hog (xs in, ys out)
float xs[70];
float ys[70];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float `
	for i := 0; i < 70; i++ {
		if i > 0 {
			src += ", "
		}
		src += "v" + string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	src += ";\n"
	for i := 0; i < 70; i++ {
		name := "v" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		src += "        receive (L, X, " + name + ", xs[" + itoa(i) + "]);\n"
	}
	// Send everything back in reverse order: the queue's FIFO order
	// forces all 70 values to stay live simultaneously.
	for i := 69; i >= 0; i-- {
		name := "v" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		src += "        send (R, X, " + name + ", ys[" + itoa(69-i) + "]);\n"
	}
	src += "    end\n    call f;\nend\n"
	_, err := Compile(src, Options{})
	if err == nil {
		t.Fatal("expected a register-file error")
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}
