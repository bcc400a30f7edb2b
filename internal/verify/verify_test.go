package verify

import (
	"strings"
	"testing"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/sim"
	"warp/internal/w2"
)

// Hand-built microprograms, one per invariant: each test constructs the
// smallest program that trips (or satisfies) one proposition, so every
// diagnostic path is pinned independently of the compiler.

func recvOp(r mcode.Reg) mcode.IOOp {
	return mcode.IOOp{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: r}
}

func sendOp(r mcode.Reg) mcode.IOOp {
	return mcode.IOOp{Recv: false, Dir: w2.DirR, Chan: w2.ChanX, Reg: r}
}

func straight(instrs ...*mcode.Instr) *mcode.Straight {
	return &mcode.Straight{Instrs: instrs}
}

// program wraps cell items into a full verifier input with a host
// program covering nIn receives and nOut sends on channel X.
func program(nIn, nOut int, items ...mcode.CodeItem) sim.Config {
	return sim.Config{
		Cells: 2,
		Cell:  &mcode.CellProgram{Items: items},
		IU:    &mcode.IUProgram{},
		Host: &hostgen.Program{
			In:  map[w2.Channel]hostgen.Stream{w2.ChanX: hostgen.Of(make([]hostgen.Word, nIn)...)},
			Out: map[w2.Channel]hostgen.Stream{w2.ChanX: hostgen.Of(make([]hostgen.Word, nOut)...)},
		},
		Skew: 1,
		Lead: 1,
	}
}

// expect runs the verifier and asserts the given invariant appears
// among the diagnostics.
func expect(t *testing.T, p sim.Config, inv Invariant) *Error {
	t.Helper()
	_, err := Verify(sim.Load(p))
	if err == nil {
		t.Fatalf("verifier accepted; want a %s violation", inv)
	}
	verr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error is %T, want *verify.Error", err)
	}
	for _, d := range verr.Diags {
		if d.Invariant == inv {
			return verr
		}
	}
	t.Fatalf("no %s diagnostic; got: %v", inv, verr)
	return nil
}

func TestAcceptsMinimalProgram(t *testing.T) {
	// recv r1; send r1 — balanced, covered by skew 1, no hazards.
	p := program(1, 1,
		straight(
			&mcode.Instr{IO: []mcode.IOOp{recvOp(1)}},
			&mcode.Instr{IO: []mcode.IOOp{sendOp(1)}},
		),
	)
	rep, err := Verify(sim.Load(p))
	if err != nil {
		t.Fatalf("verifier rejected a correct program: %v", err)
	}
	if rep.Sends[w2.ChanX] != 1 || rep.Recvs[w2.ChanX] != 1 {
		t.Errorf("counts: sends=%d recvs=%d, want 1/1", rep.Sends[w2.ChanX], rep.Recvs[w2.ChanX])
	}
	if rep.Data[w2.ChanX].Method != "exact" || rep.Data[w2.ChanX].Max != 1 {
		t.Errorf("X occupancy = %+v, want exact max 1", rep.Data[w2.ChanX])
	}
	if rep.Checked == 0 {
		t.Error("no propositions recorded as checked")
	}
}

func TestStructureBadRegister(t *testing.T) {
	p := program(1, 0, straight(&mcode.Instr{IO: []mcode.IOOp{recvOp(mcode.NumRegs + 3)}}))
	expect(t, p, InvStructure)
}

func TestStructureLeftwardSend(t *testing.T) {
	bad := mcode.IOOp{Recv: false, Dir: w2.DirL, Chan: w2.ChanX, Reg: 1}
	p := program(0, 1, straight(&mcode.Instr{IO: []mcode.IOOp{bad}}))
	expect(t, p, InvStructure)
}

func TestDefBeforeUse(t *testing.T) {
	// fadd r2 <- r1,r1 issues at cycle 0 and lands at cycle 5; the send
	// reads r2 at cycle 1, racing the register's first definition.
	p := program(0, 1,
		straight(
			&mcode.Instr{Fields: mcode.Fields{HasAdd: true, Add: mcode.AluOp{Code: mcode.Fadd, Dst: 2, Src: [3]mcode.Reg{1, 1}}}},
			&mcode.Instr{IO: []mcode.IOOp{sendOp(2)}},
		),
	)
	expect(t, p, InvDefBeforeUse)
}

func TestFPULatencyHazard(t *testing.T) {
	// r2 is first defined by a literal (lands cycle 1), then redefined
	// by an FPU op at cycle 1 (lands cycle 6); the read at cycle 2 races
	// the redefinition — an FPU-latency hazard, not def-before-use.
	p := program(0, 1,
		straight(
			&mcode.Instr{Fields: mcode.Fields{HasLit: true, Lit: mcode.LitOp{Dst: 2, Value: 1}}},
			&mcode.Instr{Fields: mcode.Fields{HasAdd: true, Add: mcode.AluOp{Code: mcode.Fadd, Dst: 2, Src: [3]mcode.Reg{2, 2}}}},
			&mcode.Instr{IO: []mcode.IOOp{sendOp(2)}},
		),
	)
	verr := expect(t, p, InvFPULatency)
	for _, d := range verr.Diags {
		if d.Invariant == InvDefBeforeUse {
			t.Errorf("redefinition race misclassified as def-before-use: %v", d)
		}
	}
}

func TestImplicitZeroReadAccepted(t *testing.T) {
	// Sending a never-written register is defined behavior: the machine
	// clears the register file at start.  Single cell, so the send-only
	// stream has no inter-cell queue to balance.
	p := program(0, 1, straight(&mcode.Instr{IO: []mcode.IOOp{sendOp(7)}}))
	p.Cells = 1
	if _, err := Verify(sim.Load(p)); err != nil {
		t.Fatalf("read of an implicitly-zero register rejected: %v", err)
	}
}

func TestQueueBalance(t *testing.T) {
	// Two sends, one receive: the inter-cell queue gains a word per cell
	// pass and can never balance.
	p := program(1, 2,
		straight(
			&mcode.Instr{IO: []mcode.IOOp{recvOp(1)}},
			&mcode.Instr{IO: []mcode.IOOp{sendOp(1)}},
			&mcode.Instr{IO: []mcode.IOOp{sendOp(1)}},
		),
	)
	expect(t, p, InvQueueBalance)
}

func TestSkewTooSmall(t *testing.T) {
	// The receive runs at cycle 0 but the matching upstream send only at
	// cycle 2; skew 1 delivers the word one cycle late.
	p := program(1, 1,
		straight(
			&mcode.Instr{IO: []mcode.IOOp{recvOp(1)}},
			&mcode.Instr{},
			&mcode.Instr{IO: []mcode.IOOp{sendOp(1)}},
		),
	)
	expect(t, p, InvSkew)
}

func TestQueueOverflow(t *testing.T) {
	// 200 sends before the first receive: occupancy crosses the 128-word
	// hardware queue depth.
	var instrs []*mcode.Instr
	for i := 0; i < 200; i++ {
		instrs = append(instrs, &mcode.Instr{IO: []mcode.IOOp{sendOp(1)}})
	}
	for i := 0; i < 200; i++ {
		instrs = append(instrs, &mcode.Instr{IO: []mcode.IOOp{recvOp(1)}})
	}
	p := program(200, 200, straight(instrs...))
	verr := expect(t, p, InvQueueOverflow)
	found := false
	for _, d := range verr.Diags {
		// The diagnostic reports the peak (200) and where the depth was
		// first crossed (send 128).
		if d.Invariant == InvQueueOverflow && strings.Contains(d.Detail, "200") && strings.Contains(d.Detail, "128") {
			found = true
		}
	}
	if !found {
		t.Errorf("overflow diagnostic does not report peak and crossing point: %v", verr)
	}
}

func TestExactOccupancyAtBoundary(t *testing.T) {
	// Exactly QueueDepth words in flight is legal: the queue is full,
	// not overflowing.
	var instrs []*mcode.Instr
	for i := 0; i < mcode.QueueDepth; i++ {
		instrs = append(instrs, &mcode.Instr{IO: []mcode.IOOp{sendOp(1)}})
	}
	for i := 0; i < mcode.QueueDepth; i++ {
		instrs = append(instrs, &mcode.Instr{IO: []mcode.IOOp{recvOp(1)}})
	}
	p := program(mcode.QueueDepth, mcode.QueueDepth, straight(instrs...))
	rep, err := Verify(sim.Load(p))
	if err != nil {
		t.Fatalf("a full-but-not-overflowing queue was rejected: %v", err)
	}
	if rep.Data[w2.ChanX].Max != mcode.QueueDepth {
		t.Errorf("proven occupancy %d, want exactly %d", rep.Data[w2.ChanX].Max, mcode.QueueDepth)
	}
}

func TestHostStreamMismatch(t *testing.T) {
	// The cell receives one word; the host feeds two.
	p := program(2, 1,
		straight(
			&mcode.Instr{IO: []mcode.IOOp{recvOp(1)}},
			&mcode.Instr{IO: []mcode.IOOp{sendOp(1)}},
		),
	)
	expect(t, p, InvHostStream)
}

func TestAddrStreamUnreadTable(t *testing.T) {
	// The IU's address table holds a word the program never reads.
	p := program(0, 0, straight(&mcode.Instr{}))
	p.IU.Table = []int64{7}
	expect(t, p, InvAddrStream)
}

func TestAddrStreamMissingAddresses(t *testing.T) {
	// The cell makes a memory reference but the IU emits no address.
	load := &mcode.Instr{}
	load.Mem[0] = mcode.MemOp{Kind: mcode.MemLoad, Reg: 1}
	p := program(0, 0, straight(load))
	expect(t, p, InvAddrStream)
}

func TestAddrStreamOutOfRange(t *testing.T) {
	// The IU emits an address beyond the 4K-word cell memory.
	load := &mcode.Instr{}
	load.Mem[0] = mcode.MemOp{Kind: mcode.MemLoad, Reg: 1}
	p := program(0, 0, straight(load))
	out := &mcode.IUInstr{Imm: &mcode.IUImm{Dst: 1, Value: mcode.MemWords + 10}}
	emit := &mcode.IUInstr{}
	emit.Out[0] = &mcode.IUOut{Src: 1}
	p.IU.Items = []mcode.IUItem{&mcode.IUStraight{Instrs: []*mcode.IUInstr{out, emit}}}
	expect(t, p, InvAddrStream)
}

func TestSigStreamMissingSignals(t *testing.T) {
	// The cell sequencer crosses two loop boundaries; the IU is silent.
	body := straight(&mcode.Instr{})
	p := program(0, 0, &mcode.LoopItem{ID: 1, Trips: 2, Body: []mcode.CodeItem{body}})
	expect(t, p, InvSigStream)
}

func TestSigStreamAccepted(t *testing.T) {
	// A two-trip cell loop matched by an IU loop emitting the dynamic
	// continue/stop signal per iteration.
	body := straight(&mcode.Instr{})
	cellLoop := &mcode.LoopItem{ID: 1, Trips: 2, Body: []mcode.CodeItem{body}}
	sig := &mcode.IUInstr{Sig: &mcode.IUSig{LoopID: 1, M: 1, CellTrips: 2}}
	iuLoop := &mcode.IULoop{ID: 1, Trips: 2, Body: []mcode.IUItem{
		&mcode.IUStraight{Instrs: []*mcode.IUInstr{sig}},
	}}
	p := program(0, 0, cellLoop)
	p.IU.Items = []mcode.IUItem{iuLoop}
	if _, err := Verify(sim.Load(p)); err != nil {
		t.Fatalf("matched signal stream rejected: %v", err)
	}
}

func TestSigStreamWrongDecision(t *testing.T) {
	// The IU signals "continue" on the final iteration: the cell
	// sequencer would loop forever.
	body := straight(&mcode.Instr{})
	cellLoop := &mcode.LoopItem{ID: 1, Trips: 2, Body: []mcode.CodeItem{body}}
	sig := &mcode.IUInstr{Sig: &mcode.IUSig{LoopID: 1, Static: true, Continue: true}}
	iuLoop := &mcode.IULoop{ID: 1, Trips: 2, Body: []mcode.IUItem{
		&mcode.IUStraight{Instrs: []*mcode.IUInstr{sig}},
	}}
	p := program(0, 0, cellLoop)
	p.IU.Items = []mcode.IUItem{iuLoop}
	expect(t, p, InvSigStream)
}

func TestShapeRejectsMissingPieces(t *testing.T) {
	if _, err := Verify(sim.Load(sim.Config{Cells: 1})); err == nil {
		t.Fatal("nil programs accepted")
	}
	p := program(0, 0, straight(&mcode.Instr{}))
	p.Cells = 0
	if _, err := Verify(sim.Load(p)); err == nil {
		t.Fatal("zero-cell array accepted")
	}
	p = program(0, 0, straight(&mcode.Instr{}))
	p.Skew = 0
	if _, err := Verify(sim.Load(p)); err == nil {
		t.Fatal("zero skew with two cells accepted")
	}
}

func TestDiagnosticFormatting(t *testing.T) {
	d := Diagnostic{Invariant: InvFPULatency, Cell: 0, Instr: 13, Loop: -1, Detail: "boom"}
	if got := d.String(); !strings.Contains(got, "instr 13") || !strings.Contains(got, "fpu-latency") {
		t.Errorf("diagnostic renders as %q", got)
	}
	e := &Error{Diags: []Diagnostic{d, d}}
	if msg := e.Error(); !strings.Contains(msg, "boom") {
		t.Errorf("error message %q drops the detail", msg)
	}
}
