package sim

import (
	"testing"

	"warp/internal/mcode"
	"warp/internal/obs"
)

func straight(n int) *mcode.Straight {
	s := &mcode.Straight{}
	for i := 0; i < n; i++ {
		s.Instrs = append(s.Instrs, &mcode.Instr{})
	}
	return s
}

// loopBoundary is one loop-body boundary crossed after an instruction, with
// the sequencer's decision.
type loopBoundary struct {
	id   int
	more bool
}

// walkCell runs a cell program through the decoder and sequencer,
// returning the depth of every instruction executed — a word's skipped
// idle cycles included — and the boundaries crossed after each.
func walkCell(t *testing.T, p *mcode.CellProgram) (depths []int, crossed [][]loopBoundary) {
	t.Helper()
	code, err := mcode.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	s := mcode.Seq{Iter: make([]int64, code.Depth)}
	for s.PC < len(code.Words) {
		w := &code.Words[s.PC]
		for range w.Skip {
			depths = append(depths, int(w.Depth))
			crossed = append(crossed, nil)
		}
		ends := code.Ends[w.EndLo:w.EndHi]
		n, more := s.Advance(int(w.Depth), ends)
		var bs []loopBoundary
		for i, e := range ends[:n] {
			bs = append(bs, loopBoundary{e.ID, more && i == n-1})
		}
		depths = append(depths, int(w.Depth))
		crossed = append(crossed, bs)
	}
	return depths, crossed
}

// TestCellSeqStraight walks a straight-line program.
func TestCellSeqStraight(t *testing.T) {
	p := &mcode.CellProgram{Items: []mcode.CodeItem{straight(3)}}
	depths, crossed := walkCell(t, p)
	if len(depths) != 3 {
		t.Fatalf("executed %d instructions, want 3", len(depths))
	}
	for i := range depths {
		if depths[i] != 0 || len(crossed[i]) != 0 {
			t.Fatalf("step %d: depth %d, loop ends %v; want straight-line code", i, depths[i], crossed[i])
		}
	}
}

// TestCellSeqLoop checks loop-loopBoundary events: one per iteration, with
// more=false on the last.
func TestCellSeqLoop(t *testing.T) {
	p := &mcode.CellProgram{Items: []mcode.CodeItem{
		&mcode.LoopItem{ID: 7, Trips: 3, Body: []mcode.CodeItem{straight(2)}},
	}}
	depths, crossed := walkCell(t, p)
	if len(depths) != 6 {
		t.Errorf("executed %d instructions, want 6", len(depths))
	}
	var events []loopBoundary
	for _, bs := range crossed {
		events = append(events, bs...)
	}
	if len(events) != 3 {
		t.Fatalf("got %d loop events, want 3", len(events))
	}
	for i, e := range events {
		wantMore := i < 2
		if e.id != 7 || e.more != wantMore {
			t.Errorf("event %d = %+v, want id=7 more=%v", i, e, wantMore)
		}
	}
}

// TestCellSeqNestedLoops checks that inner and outer boundaries are
// reported innermost first when they coincide.  Empty straight blocks
// around the loops must not disturb the walk.
func TestCellSeqNestedLoops(t *testing.T) {
	inner := &mcode.LoopItem{ID: 1, Trips: 2, Body: []mcode.CodeItem{straight(0), straight(1)}}
	outer := &mcode.LoopItem{ID: 0, Trips: 2, Body: []mcode.CodeItem{inner, straight(0)}}
	p := &mcode.CellProgram{Items: []mcode.CodeItem{straight(0), outer, straight(0)}}
	depths, crossed := walkCell(t, p)
	if len(depths) != 4 {
		t.Errorf("executed %d instructions, want 4", len(depths))
	}
	var events []loopBoundary
	for i, bs := range crossed {
		if depths[i] != 2 {
			t.Errorf("step %d: depth = %d, want 2 (inner loop body)", i, depths[i])
		}
		events = append(events, bs...)
	}
	// Expected events per step:
	// step 1: inner more=true
	// step 2: inner more=false, outer more=true
	// step 3: inner more=true
	// step 4: inner more=false, outer more=false
	want := []loopBoundary{
		{1, true},
		{1, false}, {0, true},
		{1, true},
		{1, false}, {0, false},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(events), events, len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

// TestIUSeqNestedLoops checks the IU sequencer's repetition counts and
// the innermost iteration number dynamic loop signals are computed from.
func TestIUSeqNestedLoops(t *testing.T) {
	body := &mcode.IUStraight{Instrs: []*mcode.IUInstr{{}, {}}}
	inner := &mcode.IULoop{ID: 1, Trips: 3, Body: []mcode.IUItem{body}}
	outer := &mcode.IULoop{ID: 0, Trips: 2, Body: []mcode.IUItem{inner, &mcode.IUStraight{Instrs: []*mcode.IUInstr{{}}}}}
	p := &mcode.IUProgram{Items: []mcode.IUItem{outer}}
	code, err := mcode.DecodeIU(p)
	if err != nil {
		t.Fatal(err)
	}
	if code.Depth != 2 {
		t.Fatalf("decoded nesting depth %d, want 2", code.Depth)
	}
	prog := code.Words
	s := mcode.Seq{Iter: make([]int64, code.Depth)}
	var iters []int64
	for s.PC < len(prog) {
		in := &prog[s.PC]
		iters = append(iters, s.Iter[in.Depth-1])
		s.Advance(in.Depth, in.Ends)
	}
	// Two passes of: the inner body at inner iterations 0,0,1,1,2,2,
	// then the trailing instruction at the outer iteration.
	want := []int64{0, 0, 1, 1, 2, 2, 0, 0, 0, 1, 1, 2, 2, 1}
	if len(iters) != len(want) {
		t.Fatalf("executed %d IU instructions, want %d", len(iters), len(want))
	}
	for i := range want {
		if iters[i] != want[i] {
			t.Errorf("instruction %d runs at iteration %d, want %d", i, iters[i], want[i])
		}
	}
}

// TestDecodeRejectsEmptyLoop: a loop without instructions has no
// loopBoundary to sequence.  The decoder reports it and leaves it out of the
// code; the simulator refuses to run the program.
func TestDecodeRejectsEmptyLoop(t *testing.T) {
	cp := &mcode.CellProgram{Items: []mcode.CodeItem{
		&mcode.LoopItem{ID: 3, Trips: 2, Body: []mcode.CodeItem{straight(0)}},
		straight(1),
	}}
	if code, err := mcode.Decode(cp); err == nil {
		t.Error("cell loop with an empty body must be rejected")
	} else if len(code.Words) != 1 || len(code.Ends) != 0 {
		t.Errorf("the empty loop left a trace in the code: %+v", code.Words)
	}
	ip := &mcode.IUProgram{Items: []mcode.IUItem{&mcode.IULoop{ID: 3, Trips: 2}}}
	if _, err := mcode.DecodeIU(ip); err == nil {
		t.Error("IU loop with an empty body must be rejected")
	}
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Cells: 1, Cell: cp, IU: &mcode.IUProgram{}, Host: emptyHost()}, "sim: cell loop L3 has an empty body"},
		{Config{Cells: 1, Cell: &mcode.CellProgram{}, IU: ip, Host: emptyHost()}, "sim: IU loop L3 has an empty body"},
	} {
		if _, err := Run(tc.cfg); err == nil || err.Error() != tc.want {
			t.Errorf("Run = %v, want %q", err, tc.want)
		}
	}
}

// TestQueueLimits exercises the bounded FIFO directly.
func TestQueueLimits(t *testing.T) {
	var q queue[int]
	q.init(0, obs.NumQueues, nil)
	if _, err := q.pop(); err == nil {
		t.Error("pop of empty queue must underflow")
	}
	for v := 1; v <= mcode.QueueDepth; v++ {
		if err := q.push(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.push(0); err == nil {
		t.Error("a push past the hardware depth must overflow")
	}
	v, err := q.pop()
	if err != nil || v != 1 {
		t.Errorf("pop = %d, %v; want 1", v, err)
	}
	if q.n != mcode.QueueDepth-1 {
		t.Errorf("occupancy = %d, want %d", q.n, mcode.QueueDepth-1)
	}
}
