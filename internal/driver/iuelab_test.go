package driver

import (
	"reflect"
	"testing"

	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/sim"
	"warp/internal/workloads"
)

// memRefRec collects the addresses cell 0 pops from its Adr queue, with
// the cycle of each pop, in order.
type memRefRec struct {
	obs.Recorder
	addr, cycle []int64
}

func (r *memRefRec) MemRef(cycle int64, cell, _ int, addr int64, _ bool) {
	if cell == 0 {
		r.addr = append(r.addr, addr)
		r.cycle = append(r.cycle, cycle)
	}
}

// TestIUElaborationMatchesSimulator is the differential test of the one
// piece of the shared machine model the simulator does not itself run:
// mcode's static IU elaboration, which the verifier and the fast
// executor's trace builder both trust.  For every workload its address
// sequence must be what the simulator's cell 0 pops (sim.stepIU is an
// independent implementation of the same register machine), each address
// must have left the IU by the cycle it is popped, the cycle count must
// be CountIU's Cycles, and the signal sequence must be the cell
// sequencer's boundary crossings.
func TestIUElaborationMatchesSimulator(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"polynomial", workloads.Polynomial(10, 40)},
		{"conv1d", workloads.Conv1D(9, 48)},
		{"matmul", workloads.Matmul(8)},
		{"matmul-rect", workloads.MatmulRect(16, 10, 16)},
		{"binop", workloads.Binop(16, 8)},
		{"colorseg", workloads.ColorSeg(16, 8, 4)},
		{"mandelbrot", workloads.Mandelbrot(64, 4)},
		{"fft", workloads.FFT(64)},
	} {
		for _, pipeline := range []bool{false, true} {
			name := tc.name + ".plain"
			if pipeline {
				name = tc.name + ".pipelined"
			}
			t.Run(name, func(t *testing.T) {
				c, err := Compile(tc.src, Options{Pipeline: pipeline})
				if err != nil {
					t.Fatal(err)
				}
				iuCode, err := mcode.DecodeIU(c.IU)
				if err != nil {
					t.Fatal(err)
				}
				ic, _ := mcode.CountIU(c.IU)
				tr, done := iuCode.Elaborate(c.IU.Table, ic.Cycles)
				if !done {
					t.Fatalf("elaboration ran past the program's own %d cycles", ic.Cycles)
				}
				if tr.Cycles != ic.Cycles {
					t.Errorf("elaborated %d cycles, CountIU counts %d", tr.Cycles, ic.Cycles)
				}
				if tr.OverRead >= 0 || tr.TableReads != len(c.IU.Table) {
					t.Errorf("table: %d reads of %d entries, first over-read at %d", tr.TableReads, len(c.IU.Table), tr.OverRead)
				}

				rec := &memRefRec{Recorder: obs.Nop()}
				cfg := simConfigOf(t, c)
				cfg.Recorder = rec
				if _, err := sim.Run(cfg); err != nil {
					t.Fatal(err)
				}
				if len(tr.Adr) != len(rec.addr) {
					t.Fatalf("elaborated %d addresses, the simulator's cell 0 popped %d", len(tr.Adr), len(rec.addr))
				}
				for i, a := range tr.Adr {
					if a.Val != rec.addr[i] {
						t.Fatalf("address %d: elaborated %d (IU µPC %d, cycle %d), simulated %d", i, a.Val, a.PC, a.At, rec.addr[i])
					}
					if a.At > rec.cycle[i] {
						t.Fatalf("address %d leaves the IU at cycle %d but cell 0 popped it at %d", i, a.At, rec.cycle[i])
					}
				}

				code, err := mcode.Decode(c.Cell)
				if err != nil {
					t.Fatal(err)
				}
				s := mcode.Seq{Iter: make([]int64, code.Depth)}
				n := 0
				for s.PC < len(code.Words) {
					w := &code.Words[s.PC]
					ends := code.Ends[w.EndLo:w.EndHi]
					crossed, again := s.Advance(int(w.Depth), ends)
					for i, e := range ends[:crossed] {
						if n >= len(tr.Sigs) {
							t.Fatalf("the sequencer crosses more than the %d boundaries the IU signals", len(tr.Sigs))
						}
						if sig, more := tr.Sigs[n], again && i == crossed-1; sig.ID != e.ID || sig.More != more {
							t.Fatalf("signal %d: IU sends L%d(more=%v), the sequencer crosses L%d(more=%v)", n, sig.ID, sig.More, e.ID, more)
						}
						n++
					}
				}
				if n != len(tr.Sigs) {
					t.Errorf("the IU sends %d signals, the sequencer crosses %d boundaries", len(tr.Sigs), n)
				}
				if counts, _ := mcode.CountCell(c.Cell); counts.Signals != int64(n) || counts.AdrPops != int64(len(tr.Adr)) {
					t.Errorf("closed-form counts %d signals / %d addresses, elaborated %d / %d", counts.Signals, counts.AdrPops, n, len(tr.Adr))
				}
			})
		}
	}
}

// TestIUElaborationIdleRuns: crossing a run of idle words in one step
// (IUWord.Run) is the same machine as stepping it word by word.  The
// reference is Elaborate itself over the same code with the run lengths
// cleared; the traces — events, Cycles, TableReads, OverRead, done —
// must be identical at every cycle limit, where the limit may fall in
// the middle of a run.
func TestIUElaborationIdleRuns(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"polynomial", workloads.Polynomial(10, 40)},
		{"conv1d", workloads.Conv1D(9, 48)},
		{"matmul", workloads.Matmul(8)},
		{"matmul-rect", workloads.MatmulRect(16, 10, 16)},
		{"binop", workloads.Binop(16, 8)},
		{"colorseg", workloads.ColorSeg(16, 8, 4)},
		{"mandelbrot", workloads.Mandelbrot(64, 4)},
		{"fft", workloads.FFT(64)},
	} {
		for _, pipeline := range []bool{false, true} {
			c, err := Compile(tc.src, Options{Pipeline: pipeline})
			if err != nil {
				t.Fatal(err)
			}
			code, err := mcode.DecodeIU(c.IU)
			if err != nil {
				t.Fatal(err)
			}
			stepped := code
			stepped.Words = append([]mcode.IUWord(nil), code.Words...)
			runs := 0
			for i := range stepped.Words {
				runs += stepped.Words[i].Run
				stepped.Words[i].Run = 0
			}
			if runs == 0 {
				t.Errorf("%s pipeline=%v: no idle run in the IU program; the test exercises nothing", tc.name, pipeline)
			}
			// Every limit on programs of a few thousand cycles, a stride
			// coprime to the loop lengths beyond.
			ic, _ := mcode.CountIU(c.IU)
			total := ic.Cycles
			step := int64(1)
			if total > 4000 {
				step = total/4000 | 1
			}
			for limit := int64(0); limit <= total+1; limit += step {
				got, gotDone := code.Elaborate(c.IU.Table, limit)
				want, wantDone := stepped.Elaborate(c.IU.Table, limit)
				if gotDone != wantDone || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s pipeline=%v limit %d: done %v cycles %d, %d adr, %d sigs with runs; done %v cycles %d, %d adr, %d sigs stepped",
						tc.name, pipeline, limit, gotDone, got.Cycles, len(got.Adr), len(got.Sigs), wantDone, want.Cycles, len(want.Adr), len(want.Sigs))
				}
			}
		}
	}
}
