package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/mcode/mcodetest"
	"warp/internal/w2"
)

// handProg builds a tiny cell program by hand: receive a word from X,
// double it through the ADD unit... (actually via Mov) and send it on.
func passProgram() *mcode.CellProgram {
	return &mcode.CellProgram{Items: []mcode.CodeItem{
		&mcode.Straight{Instrs: []*mcode.Instr{
			{IO: []mcode.IOOp{{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: 1}}},
			{IO: []mcode.IOOp{{Recv: false, Dir: w2.DirR, Chan: w2.ChanX, Reg: 1}}},
		}},
	}}
}

func hostFor(n int) *hostgen.Program {
	h := emptyHost()
	for i := 0; i < n; i++ {
		h.In[w2.ChanX] = append(h.In[w2.ChanX], hostgen.Of(hostgen.Word{Index: int32(i)})...)
		h.Out[w2.ChanX] = append(h.Out[w2.ChanX], hostgen.Of(hostgen.Word{Index: int32(n + i)})...)
	}
	return h
}

// TestRunHandProgram pushes one word through three cells.
func TestRunHandProgram(t *testing.T) {
	mem := []float64{42, 0}
	stats, err := Run(Config{
		Cells:   3,
		Cell:    passProgram(),
		IU:      &mcode.IUProgram{},
		Host:    hostFor(1),
		Skew:    1,
		Lead:    1,
		HostMem: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mem[1] != 42 {
		t.Errorf("host received %v, want 42", mem[1])
	}
	if stats.Sent[w2.ChanX] != 1 {
		t.Errorf("sent %d words, want 1", stats.Sent[w2.ChanX])
	}
	// Cell i finishes roughly i*skew later.
	if stats.CellFinish[2] <= stats.CellFinish[0] {
		t.Errorf("cell finish times not skewed: %v", stats.CellFinish)
	}
}

// TestLoadDefersRunPart: Load decodes the cell program alone, what the
// verifier proves; the IU decode, the count and the run counts wait for
// the first call that reads them, so a compile that never runs makes
// none of them.
func TestLoadDefersRunPart(t *testing.T) {
	l := Load(Config{Cells: 3, Cell: passProgram(), IU: &mcode.IUProgram{}, Host: hostFor(1), Skew: 1, Lead: 1})
	code, err := l.Code()
	if err != nil {
		t.Fatal(err)
	}
	if l.times != nil || l.count != (mcode.CellCounts{}) {
		t.Fatalf("Load made the run part: run counts %v, count %+v", l.times, l.count)
	}
	count, err := l.Count()
	if err != nil {
		t.Fatal(err)
	}
	if count.Cycles != 2 || len(l.times) != len(code.Words) {
		t.Errorf("after Count: %d cycles, run counts %v; want 2 cycles and one count a word of %d", count.Cycles, l.times, len(code.Words))
	}
}

// runBoth runs the configuration alone and as a batched walk of three
// copies of its host image, and fails unless the two errors read alike
// byte for byte: a control error is the same in every lane.
func runBoth(t *testing.T, cfg Config) error {
	t.Helper()
	_, err := Run(cfg)
	images := make([][]float64, 3)
	for l := range images {
		images[l] = append([]float64(nil), cfg.HostMem...)
	}
	if _, wide := Load(cfg).RunBatch(cfg, images); fmt.Sprint(wide) != fmt.Sprint(err) {
		t.Errorf("alone: %v\nthree lanes: %v", err, wide)
	}
	return err
}

// TestRunRefusesMachine: a machine of no cells or a negative skew is
// refused before a cell steps, and a zero Config, which has no program to
// load (Load is total), is an error, not a fault; a loaded program
// refuses the same way.
func TestRunRefusesMachine(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, "sim: need at least one cell"},
		{Config{Cells: 2, Skew: -1}, "sim: negative skew -1"},
	} {
		if _, err := Run(tc.cfg); err == nil || err.Error() != tc.want {
			t.Errorf("Run(%+v): %v, want %q", tc.cfg, err, tc.want)
		}
		cfg := tc.cfg
		cfg.Cell, cfg.IU, cfg.Host = &mcode.CellProgram{}, &mcode.IUProgram{}, emptyHost()
		if _, err := Load(cfg).RunBatch(cfg, [][]float64{nil, nil}); err == nil || err.Error() != tc.want {
			t.Errorf("Load(%+v).RunBatch: %v, want %q", tc.cfg, err, tc.want)
		}
	}
}

// TestRunDetectsUnderflow: a cell receiving a word nobody sends.
func TestRunDetectsUnderflow(t *testing.T) {
	prog := &mcode.CellProgram{Items: []mcode.CodeItem{
		&mcode.Straight{Instrs: []*mcode.Instr{
			{IO: []mcode.IOOp{{Recv: true, Dir: w2.DirL, Chan: w2.ChanY, Reg: 1}}},
		}},
	}}
	err := runBoth(t, Config{
		Cells: 1,
		Cell:  prog,
		IU:    &mcode.IUProgram{},
		Host:  emptyHost(),
		Lead:  1,
	})
	if err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Errorf("err = %v, want queue underflow", err)
	}
}

// TestRunDetectsSignalMismatch: the IU sends a wrong loop decision.
func TestRunDetectsSignalMismatch(t *testing.T) {
	cellProg := &mcode.CellProgram{Items: []mcode.CodeItem{
		&mcode.LoopItem{ID: 0, Trips: 2, Body: []mcode.CodeItem{
			&mcode.Straight{Instrs: []*mcode.Instr{{}, {}, {}}},
		}},
	}}
	// IU claims the loop stops after the first iteration.
	iu := &mcode.IUProgram{Items: []mcode.IUItem{
		&mcode.IUStraight{Instrs: []*mcode.IUInstr{
			{Sig: &mcode.IUSig{LoopID: 0, Static: true, Continue: false}},
			{Sig: &mcode.IUSig{LoopID: 0, Static: true, Continue: false}},
		}},
	}}
	err := runBoth(t, Config{
		Cells: 1,
		Cell:  cellProg,
		IU:    iu,
		Host:  emptyHost(),
		Lead:  1,
	})
	if err == nil || !strings.Contains(err.Error(), "signal mismatch") {
		t.Errorf("err = %v, want loop signal mismatch", err)
	}
}

// TestRunDetectsMissingSignal: cells block when the IU never sends the
// loop decision.
func TestRunDetectsMissingSignal(t *testing.T) {
	cellProg := &mcode.CellProgram{Items: []mcode.CodeItem{
		&mcode.LoopItem{ID: 0, Trips: 2, Body: []mcode.CodeItem{
			&mcode.Straight{Instrs: []*mcode.Instr{{}}},
		}},
	}}
	err := runBoth(t, Config{
		Cells: 1,
		Cell:  cellProg,
		IU:    &mcode.IUProgram{},
		Host:  emptyHost(),
		Lead:  1,
	})
	if err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Errorf("err = %v, want signal-queue underflow", err)
	}
}

// TestRunDetectsBadAddress: the IU emits an address outside cell
// memory.
func TestRunDetectsBadAddress(t *testing.T) {
	sym := &w2.Symbol{Name: "buf", Kind: w2.SymCellArray}
	cellProg := &mcode.CellProgram{Items: []mcode.CodeItem{
		&mcode.Straight{Instrs: []*mcode.Instr{
			{Mem: [mcode.MemPorts]mcode.MemOp{{Kind: mcode.MemLoad, Reg: 1, Addr: mcode.AddrInfo{Sym: sym}}}},
		}},
	}}
	iu := &mcode.IUProgram{Items: []mcode.IUItem{
		&mcode.IUStraight{Instrs: []*mcode.IUInstr{
			{Imm: &mcode.IUImm{Dst: 0, Value: 99999}},
			{Out: [mcode.MemPorts]*mcode.IUOut{{Src: 0}}},
		}},
	}}
	err := runBoth(t, Config{
		Cells: 1,
		Cell:  cellProg,
		IU:    iu,
		Host:  emptyHost(),
		Lead:  3,
	})
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("err = %v, want address range error", err)
	}
}

// TestRunHostBackpressure: the host waits when the first cell's queue
// is full instead of overflowing it.
func TestRunHostBackpressure(t *testing.T) {
	// A cell consuming one word every 4 cycles while the host offers
	// 200 words: the queue would overflow without backpressure.
	var items []mcode.CodeItem
	items = append(items, &mcode.LoopItem{ID: 0, Trips: 200, Body: []mcode.CodeItem{
		&mcode.Straight{Instrs: []*mcode.Instr{
			{IO: []mcode.IOOp{{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: 1}}},
			{}, {}, {},
		}},
	}})
	host := emptyHost()
	mem := make([]float64, 200)
	for i := range mem {
		host.In[w2.ChanX] = append(host.In[w2.ChanX], hostgen.Of(hostgen.Word{Index: int32(i)})...)
	}
	iu := &mcode.IUProgram{Items: []mcode.IUItem{
		&mcode.IUStraight{Instrs: signalInstrs(200, 4)},
	}}
	stats, err := Run(Config{
		Cells: 1, Cell: &mcode.CellProgram{Items: items}, IU: iu,
		Host: host, Lead: 1, HostMem: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxQueue > mcode.QueueDepth {
		t.Errorf("queue exceeded hardware depth: %d", stats.MaxQueue)
	}
}

// signalInstrs paces one loop signal per cell iteration of bodyLen
// cycles (the real IU code generator achieves the same pacing by
// mirroring the cell program's structure).
func signalInstrs(trips, bodyLen int) []*mcode.IUInstr {
	var out []*mcode.IUInstr
	for i := 0; i < trips; i++ {
		out = append(out, &mcode.IUInstr{Sig: &mcode.IUSig{LoopID: 0, Static: true, Continue: i < trips-1}})
		for p := 1; p < bodyLen; p++ {
			out = append(out, &mcode.IUInstr{})
		}
	}
	return out
}

// emptyHost returns a host program with no traffic.
func emptyHost() *hostgen.Program {
	return &hostgen.Program{In: map[w2.Channel]hostgen.Stream{}, Out: map[w2.Channel]hostgen.Stream{}}
}

// dummySym returns a throwaway cell-array symbol.
func dummySym() *w2.Symbol {
	return &w2.Symbol{Name: "buf", Kind: w2.SymCellArray}
}

// TestRunDetectsUnbalancedEnd: a run whose streams do not come out even
// when the last cell retires must fail instead of returning stale
// output as success.  Nothing in these programs trips a per-cycle
// check; only the end-of-run balance does.
func TestRunDetectsUnbalancedEnd(t *testing.T) {
	recvOnly := &mcode.CellProgram{Items: []mcode.CodeItem{
		&mcode.Straight{Instrs: []*mcode.Instr{
			{IO: []mcode.IOOp{{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: 1}}},
		}},
	}}
	adrOut := &mcode.IUProgram{Items: []mcode.IUItem{
		&mcode.IUStraight{Instrs: []*mcode.IUInstr{
			{Out: [mcode.MemPorts]*mcode.IUOut{{Src: 0}}},
		}},
	}}
	hostIn := func(n int) *hostgen.Program {
		h := emptyHost()
		h.In[w2.ChanX] = hostgen.Of(make([]hostgen.Word, n)...)
		return h
	}
	underDelivery := hostFor(1)
	underDelivery.Out[w2.ChanX] = hostgen.Of(hostgen.Word{Index: 1}, hostgen.Word{Index: 1})

	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{
			// The host expects two words back; the array sends one.
			name: "under-delivery",
			cfg:  Config{Cells: 2, Cell: passProgram(), IU: &mcode.IUProgram{}, Host: underDelivery, Skew: 1},
			want: "sending 1 of the 2 words the host program expects on X",
		},
		{
			// The cell retires after one receive, two cycles in; the host
			// is still in the middle of its stream.
			name: "unconsumed-host-input",
			cfg:  Config{Cells: 1, Cell: recvOnly, IU: &mcode.IUProgram{}, Host: hostIn(300)},
			want: "298 of the host's 300 input words on X undelivered",
		},
		{
			// Two words delivered, one received: the other is stranded.
			name: "residue-in-data-queue",
			cfg:  Config{Cells: 1, Cell: recvOnly, IU: &mcode.IUProgram{}, Host: hostIn(2)},
			want: "1 words left in queue cell0.X",
		},
		{
			// The IU emits an address no memory reference pops.
			name: "residue-in-address-queue",
			cfg:  Config{Cells: 1, Cell: recvOnly, IU: adrOut, Host: hostIn(1)},
			want: "1 words left in queue cell0.Adr",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Lead = 1
			tc.cfg.HostMem = []float64{42, 0}
			err := runBoth(t, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestBatchLandingOrder: writes that meet at one register or one memory
// word at the end of one cycle land in the machine's order — FPU results
// due, then receives, loads, stores, one-cycle ALU results and the
// literal — and every code only Eval computes reads its operands as they
// stand, alone and in every lane of a batched walk; a fault reads alike
// on both, up to the lane the batch names.  The fast plan runs the same
// cases in its own test.
func TestBatchLandingOrder(t *testing.T) {
	for _, c := range mcodetest.LandingCases() {
		t.Run(c.Name, func(t *testing.T) {
			cfg := Config{Cells: 1, Cell: c.Cell, IU: c.IU, Host: c.Host, Lead: c.Lead}
			fault := "cycle 3: cell 0: sim: " + c.Fault // the one faulting case divides in its third word
			images := make([][]float64, len(c.Inputs))
			for l := range images {
				images[l] = c.Image(l)
				cfg.HostMem = c.Image(l)
				_, err := Run(cfg)
				if err := c.Check(cfg.HostMem, err, fault); err != nil {
					t.Errorf("lane %d alone: %v", l, err)
				}
			}
			_, err := Load(cfg).RunBatch(cfg, images)
			for l, img := range images {
				if err := c.Check(img, err, fault+" in lane 0"); err != nil {
					t.Errorf("lane %d: %v", l, err)
				}
			}
		})
	}
}

// TestRunFaultOrder pins which fault a word reports when more than one of
// its fields would fault: the first in the order the word executes — its
// queue fields in the instruction's order, then its memory ports, then
// its FPU fields — alone and three lanes wide.  (The divide's own text is
// TestBatchLandingOrder's.)
func TestRunFaultOrder(t *testing.T) {
	recvY := mcode.IOOp{Recv: true, Dir: w2.DirL, Chan: w2.ChanY, Reg: 2}
	sendX := mcode.IOOp{Dir: w2.DirR, Chan: w2.ChanX, Reg: 1}
	// fill sends a full queue's worth of words into cell 1's X queue
	// before cell 1 starts, then runs the word under test.
	fill := func(last *mcode.Instr) *mcode.CellProgram {
		s := &mcode.Straight{}
		for range mcode.QueueDepth {
			s.Instrs = append(s.Instrs, &mcode.Instr{IO: []mcode.IOOp{sendX}})
		}
		s.Instrs = append(s.Instrs, last)
		return &mcode.CellProgram{Items: []mcode.CodeItem{s}}
	}
	one := func(in *mcode.Instr) *mcode.CellProgram {
		return &mcode.CellProgram{Items: []mcode.CodeItem{&mcode.Straight{Instrs: []*mcode.Instr{in}}}}
	}
	load := [mcode.MemPorts]mcode.MemOp{{Kind: mcode.MemLoad, Reg: 3, Addr: mcode.AddrInfo{Sym: dummySym()}}}
	div := mcode.Fields{HasMul: true, Mul: mcode.AluOp{Code: mcode.Fdiv, Dst: 4, Src: [3]mcode.Reg{0, 1}}}
	for _, tc := range []struct {
		name  string
		cells int
		cell  *mcode.CellProgram
		host  *hostgen.Program
		want  string
	}{
		{
			name: "underflowing-receive-then-overflowing-send", cells: 2,
			cell: fill(&mcode.Instr{IO: []mcode.IOOp{recvY, sendX}}),
			want: "cycle 129: cell 0: sim: queue cell0.Y underflows (receive before the matching send)",
		},
		{
			name: "overflowing-send-then-underflowing-receive", cells: 2,
			cell: fill(&mcode.Instr{IO: []mcode.IOOp{sendX, recvY}}),
			want: "cycle 129: cell 0: sim: queue cell1.X overflows its 128 words",
		},
		{
			name: "receive-then-empty-address-queue", cells: 1,
			cell: one(&mcode.Instr{IO: []mcode.IOOp{{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: 2}}, Mem: load}),
			host: hostFor(1),
			want: "cycle 1: cell 0: sim: queue cell0.Adr underflows (receive before the matching send)",
		},
		{
			name: "queue-fault-before-divide-by-zero", cells: 1,
			cell: one(&mcode.Instr{Fields: div, IO: []mcode.IOOp{recvY}}),
			want: "cycle 1: cell 0: sim: queue cell0.Y underflows (receive before the matching send)",
		},
		{
			name: "leftward-send-then-rightward-receive", cells: 1,
			cell: one(&mcode.Instr{IO: []mcode.IOOp{{Dir: w2.DirL, Chan: w2.ChanX, Reg: 1}, {Recv: true, Dir: w2.DirR, Chan: w2.ChanY, Reg: 2}}}),
			want: "cycle 1: cell 0: sim: send to the left is not supported (rightward flow only)",
		},
		{
			name: "rightward-receive-then-leftward-send", cells: 1,
			cell: one(&mcode.Instr{IO: []mcode.IOOp{{Recv: true, Dir: w2.DirR, Chan: w2.ChanY, Reg: 2}, {Dir: w2.DirL, Chan: w2.ChanX, Reg: 1}}}),
			want: "cycle 1: cell 0: sim: receive from the right is not supported (rightward flow only)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			host := tc.host
			if host == nil {
				host = emptyHost()
			}
			for _, g := range groupCounts {
				err := runGrouped(t, g, Config{
					Cells: tc.cells, Cell: tc.cell, IU: &mcode.IUProgram{}, Host: host,
					Skew: 2 * mcode.QueueDepth, Lead: 1, HostMem: []float64{42, 0},
				})
				if err == nil || err.Error() != tc.want {
					t.Errorf("%d groups: err = %v,\nwant %s", g, err, tc.want)
				}
			}
		})
	}
}

// groupCounts are the group counts a run is held to the sequential walk
// at.
var groupCounts = []int{1, 2, 4}

// runGrouped is runBoth with the array split into g groups.
func runGrouped(t *testing.T, g int, cfg Config) error {
	t.Helper()
	defer SetGroups(g)()
	return runBoth(t, cfg)
}

// TestGroupBoundaryFaults: the faults a run split into groups finds at a
// boundary, or in two groups at one cycle, read as the sequential walk's
// first, at every group count: an overflow of the right group's first
// cell's data or signal queue is the pushing cell's, an underflow there
// the receiving cell's; of two faults in one cycle the left one wins; and
// the IU keeps stepping after group 0's cells retire, up to the array's
// last cycle and no further.
func TestGroupBoundaryFaults(t *testing.T) {
	recvX := func(r mcode.Reg) mcode.IOOp { return mcode.IOOp{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: r} }
	sendX := func(r mcode.Reg) mcode.IOOp { return mcode.IOOp{Dir: w2.DirR, Chan: w2.ChanX, Reg: r} }
	straight := func(instrs ...*mcode.Instr) *mcode.CellProgram {
		return &mcode.CellProgram{Items: []mcode.CodeItem{&mcode.Straight{Instrs: instrs}}}
	}
	// addresses emits n addresses into cell 0's Adr queue, one a cycle
	// from cycle 0, that no cell pops.
	addresses := func(n int) *mcode.IUProgram {
		s := &mcode.IUStraight{}
		for range n {
			s.Instrs = append(s.Instrs, &mcode.IUInstr{Out: [mcode.MemPorts]*mcode.IUOut{{Src: 0}}})
		}
		return &mcode.IUProgram{Items: []mcode.IUItem{s}}
	}
	sends := &mcode.Straight{}
	for range mcode.QueueDepth + 1 {
		sends.Instrs = append(sends.Instrs, &mcode.Instr{IO: []mcode.IOOp{sendX(1)}})
	}
	loop := &mcode.CellProgram{Items: []mcode.CodeItem{
		&mcode.LoopItem{ID: 0, Trips: 200, Body: []mcode.CodeItem{&mcode.Straight{Instrs: []*mcode.Instr{{}}}}},
	}}
	// Receive two words, send the first on: cell 1 underflows on its
	// second receive, two cycles after its start.
	short := straight(&mcode.Instr{IO: []mcode.IOOp{recvX(1)}}, &mcode.Instr{IO: []mcode.IOOp{sendX(1)}}, &mcode.Instr{IO: []mcode.IOOp{recvX(2)}})
	shortHost := hostFor(1)
	shortHost.In[w2.ChanX] = hostgen.Of(hostgen.Word{Index: 0}, hostgen.Word{Index: 0})

	// Each cell divides 1 by the word it receives and passes the word
	// less one on, so cell i faults on the first word equal to i: cell 1
	// on word 3, cell 2 on word 1, one element of L cycles after cell 1
	// and two skews later, the same cycle.
	const L = mcode.FPULatency + 4
	one := &mcode.Instr{}
	one.HasLit, one.Lit = true, mcode.LitOp{Dst: 4, Value: 1}
	div := []*mcode.Instr{one}
	for range 5 {
		step := &mcode.Instr{Fields: mcode.Fields{
			HasAdd: true, Add: mcode.AluOp{Code: mcode.Fsub, Dst: 2, Src: [3]mcode.Reg{1, 4}},
			HasMul: true, Mul: mcode.AluOp{Code: mcode.Fdiv, Dst: 3, Src: [3]mcode.Reg{4, 1}},
		}}
		div = append(div, &mcode.Instr{IO: []mcode.IOOp{recvX(1)}}, step)
		for range mcode.FPULatency + 1 {
			div = append(div, &mcode.Instr{})
		}
		div = append(div, &mcode.Instr{IO: []mcode.IOOp{sendX(2)}})
	}
	divHost := emptyHost()
	for i := range 5 {
		divHost.In[w2.ChanX] = append(divHost.In[w2.ChanX], hostgen.Of(hostgen.Word{Index: int32(i)})...)
		divHost.Out[w2.ChanX] = append(divHost.Out[w2.ChanX], hostgen.Of(hostgen.Word{Index: int32(5 + i)})...)
	}

	for _, tc := range []struct {
		name string
		cfg  Config
		want string
		lane string // what a batched walk adds to a value fault
	}{
		{
			name: "data-overflow-into-the-right-group",
			cfg:  Config{Cells: 2, Cell: &mcode.CellProgram{Items: []mcode.CodeItem{sends}}, IU: &mcode.IUProgram{}, Host: emptyHost(), Skew: 400},
			want: "cycle 129: cell 0: sim: queue cell1.X overflows its 128 words",
		},
		{
			name: "signal-overflow-into-the-right-group",
			cfg: Config{Cells: 2, Cell: loop, Host: emptyHost(), Skew: 400,
				IU: &mcode.IUProgram{Items: []mcode.IUItem{&mcode.IUStraight{Instrs: signalInstrs(200, 1)}}}},
			want: "cycle 129: sim: queue cell1.Sig overflows its 128 words",
		},
		{
			name: "underflow-in-the-right-group",
			cfg:  Config{Cells: 2, Cell: short, IU: &mcode.IUProgram{}, Host: shortHost, Skew: 3},
			want: "cycle 6: cell 1: sim: queue cell1.X underflows (receive before the matching send)",
		},
		{
			name: "left-and-right-cell-faults-in-one-cycle",
			cfg:  Config{Cells: 4, Cell: straight(div...), IU: &mcode.IUProgram{}, Host: divHost, Skew: 2 * L},
			want: fmt.Sprintf("cycle %d: cell 1: sim: floating divide by zero", 1+2*L+1+3*L+1),
			lane: " in lane 0",
		},
		{
			// The IU overflows cell 0's Adr queue in the cycle cell 1
			// underflows, after cell 0 has retired.
			name: "iu-and-right-cell-faults-in-one-cycle",
			cfg:  Config{Cells: 2, Cell: short, IU: addresses(mcode.QueueDepth + 1), Host: shortHost, Skew: 125},
			want: "cycle 128: sim: queue cell0.Adr overflows its 128 words",
		},
		{
			name: "iu-fault-after-group-0-retires",
			cfg:  Config{Cells: 2, Cell: straight(&mcode.Instr{}, &mcode.Instr{}, &mcode.Instr{}), IU: addresses(mcode.QueueDepth + 1), Host: emptyHost(), Skew: 200},
			want: "cycle 128: sim: queue cell0.Adr overflows its 128 words",
		},
		{
			// The array's last cycle is 53: the IU's pushes after it are
			// never made.
			name: "iu-stops-at-the-last-cycle",
			cfg:  Config{Cells: 2, Cell: straight(&mcode.Instr{}, &mcode.Instr{}, &mcode.Instr{}), IU: addresses(mcode.QueueDepth + 1), Host: emptyHost(), Skew: 50},
			want: "sim: the array finished with 54 words left in queue cell0.Adr",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Lead = 1
			tc.cfg.HostMem = []float64{100, 2, 100, 1, 100, 0, 0, 0, 0, 0}
			images := [][]float64{tc.cfg.HostMem, slices.Clone(tc.cfg.HostMem), slices.Clone(tc.cfg.HostMem)}
			for _, g := range groupCounts {
				restore := SetGroups(g)
				if _, err := Run(tc.cfg); err == nil || err.Error() != tc.want {
					t.Errorf("%d groups: err = %v,\nwant %s", g, err, tc.want)
				}
				if _, err := Load(tc.cfg).RunBatch(tc.cfg, images); err == nil || err.Error() != tc.want+tc.lane {
					t.Errorf("%d groups, three lanes: err = %v,\nwant %s", g, err, tc.want+tc.lane)
				}
				restore()
			}
		})
	}
}
