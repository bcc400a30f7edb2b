package iugen

import (
	"testing"

	"warp/internal/cellgen"
	"warp/internal/ir"
	"warp/internal/mcode"
	"warp/internal/opt"
	"warp/internal/w2"
)

func genIU(t *testing.T, src string, pipeline bool) (*cellgen.Result, *Result) {
	t.Helper()
	m, err := w2.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := w2.Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(info)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(p)
	cg, err := cellgen.Generate(p, cellgen.Options{Pipeline: pipeline})
	if err != nil {
		t.Fatal(err)
	}
	iu, err := Generate(cg.Cell)
	if err != nil {
		t.Fatal(err)
	}
	return cg, iu
}

const memSrc = `
module t (xs in, ys out)
float xs[12];
float ys[12];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float v;
        float buf[16];
        int i, j;
        for i := 0 to 11 do begin
            receive (L, X, v, xs[i]);
            v := (v * 2.0 + 1.0) * (v - 3.0);
            buf[i] := v;
        end;
        for j := 0 to 11 do begin
            v := buf[j];
            v := v * v + v;
            send (R, X, v, ys[j]);
        end;
    end
    call f;
end
`

// TestIUInduction: simple induction addresses use registers, not the
// table.
func TestIUInduction(t *testing.T) {
	_, iu := genIU(t, memSrc, false)
	if iu.AddrRegs == 0 {
		t.Error("no induction registers allocated")
	}
	if iu.Spilled != 0 || iu.TableEntries != 0 {
		t.Errorf("simple inductions spilled to the table: %d exprs, %d entries",
			iu.Spilled, iu.TableEntries)
	}
	if err := mcode.ValidateIU(iu.IU); err != nil {
		t.Error(err)
	}
}

// TestIUMirrorsCellLength: the IU program runs in lock step with the
// cells, offset only by its prologue.
func TestIUMirrorsCellLength(t *testing.T) {
	cg, iu := genIU(t, memSrc, false)
	if ic, _ := mcode.CountIU(iu.IU); ic.Cycles != cg.Cell.Cycles()+iu.Prologue {
		t.Errorf("IU %d cycles, want %d", ic.Cycles, cg.Cell.Cycles()+iu.Prologue)
	}
}

// TestIUSignalCounts: the IU emits exactly one control signal per loop
// boundary the cells cross, and in-loop signals carry the dynamic
// counter test of §6.3.1.
func TestIUSignalCounts(t *testing.T) {
	cg, iu := genIU(t, memSrc, false)
	cc, _ := mcode.CountCell(cg.Cell)
	ic, _ := mcode.CountIU(iu.IU)
	if cc.Signals != ic.Signals {
		t.Errorf("signals: cells %d, IU %d", cc.Signals, ic.Signals)
	}
	dynamic := 0
	var walkIU func(items []mcode.IUItem, inLoop bool)
	walkIU = func(items []mcode.IUItem, inLoop bool) {
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.IUStraight:
				for _, in := range it.Instrs {
					if in.Sig == nil {
						continue
					}
					if !inLoop && !in.Sig.Static {
						t.Error("dynamic signal outside any IU loop")
					}
					if !in.Sig.Static {
						dynamic++
					}
				}
			case *mcode.IULoop:
				walkIU(it.Body, true)
			}
		}
	}
	walkIU(iu.IU.Items, false)
	if dynamic == 0 {
		t.Error("no dynamic loop signals generated")
	}
}

// TestIUCounterWorkReserved: every IU loop body reserves the three
// counter cycles of §6.3.1.
func TestIUCounterWorkReserved(t *testing.T) {
	_, iu := genIU(t, memSrc, false)
	var check func(items []mcode.IUItem) bool
	found := false
	check = func(items []mcode.IUItem) bool {
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.IULoop:
				found = true
				ctr := 0
				for _, b := range it.Body {
					if s, ok := b.(*mcode.IUStraight); ok {
						for _, in := range s.Instrs {
							if in.CtrWork {
								ctr++
							}
						}
					}
				}
				if ctr != mcode.LoopOverheadCycles {
					t.Errorf("loop L%d reserves %d counter cycles, want %d",
						it.ID, ctr, mcode.LoopOverheadCycles)
				}
				check(it.Body)
			}
		}
		return true
	}
	check(iu.IU.Items)
	if !found {
		t.Fatal("no IU loop generated")
	}
}

// TestIUTinyLoopUnrolled: a 2-cycle loop body forces the m=2 unroll of
// §6.3.1 (the IU needs 3 cycles per iteration of counter work).
func TestIUTinyLoopUnrolled(t *testing.T) {
	src := `
module t (xs in, ys out)
float xs[9];
float ys[9];
cellprogram (c : 0 : 1)
begin
    function f
    begin
        float v;
        int i;
        for i := 0 to 8 do begin
            receive (L, X, v, xs[i]);
            send (R, X, v, ys[i]);
        end;
    end
    call f;
end
`
	cg, iu := genIU(t, src, false)
	cc, _ := mcode.CountCell(cg.Cell)
	ic, _ := mcode.CountIU(iu.IU)
	if cc.Signals != ic.Signals {
		t.Errorf("signals: cells %d, IU %d", cc.Signals, ic.Signals)
	}
	// The IU loop body must span at least 3 cycles even though the
	// cell body is 2.
	var ok bool
	for _, it := range iu.IU.Items {
		if l, okl := it.(*mcode.IULoop); okl {
			var body int64
			for _, b := range l.Body {
				if s, oks := b.(*mcode.IUStraight); oks {
					body += int64(len(s.Instrs))
				}
			}
			if body >= mcode.LoopOverheadCycles {
				ok = true
			}
		}
	}
	if !ok {
		t.Error("tiny loop not unrolled to cover the counter work")
	}
}

// TestIUTableSpillOnPressure: more distinct loop-variant address
// expressions than registers forces table spills.
func TestIUTableSpillOnPressure(t *testing.T) {
	src := `
module t (xs in, ys out)
float xs[4];
float ys[4];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float v, acc;
        float buf[200];
        int i;
        for i := 0 to 3 do begin
            receive (L, X, v, xs[i]);
            buf[i] := v;
            buf[5*i+4] := v;
            buf[7*i+20] := v;
            buf[9*i+40] := v;
            buf[11*i+60] := v;
            buf[13*i+80] := v;
            acc := buf[i] + buf[5*i+4] + buf[7*i+20];
            acc := acc + buf[9*i+40] + buf[11*i+60] + buf[13*i+80];
            acc := acc + buf[2*i+1] + buf[3*i+2] + buf[4*i+3];
            acc := acc + buf[6*i+5] + buf[8*i+25] + buf[10*i+45];
            acc := acc + buf[12*i+65] + buf[14*i+85] + buf[15*i+90];
            acc := acc + buf[16*i+33] + buf[17*i+37] + buf[18*i+41];
            send (R, X, acc, ys[i]);
        end;
    end
    call f;
end
`
	_, iu := genIU(t, src, false)
	if iu.AddrRegs > mcode.IUNumRegs {
		t.Errorf("%d address registers exceed the file of %d", iu.AddrRegs, mcode.IUNumRegs)
	}
	if iu.Spilled == 0 {
		t.Error("register pressure did not spill to the table")
	}
	if iu.TableEntries == 0 {
		t.Error("spilled expressions produced no table entries")
	}
	ic, _ := mcode.CountIU(iu.IU)
	if ic.TableOuts != int64(iu.TableEntries) {
		t.Errorf("table reads %d vs entries %d", ic.TableOuts, iu.TableEntries)
	}
}
