package sim

import (
	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/w2"
)

// Loaded is a compiled program loaded once (Load): its decoded cell
// program (mcode.Decode), its IU code (mcode.DecodeIU), one cell's run
// counted in closed form (mcode.CountCell) and how often a cell runs each
// decoded word.  W2 has no data-dependent control (§5.1), so all of it is
// the program's, not a run's: the simulator steps these words, the fast
// executor's plan (fastexec.CompileLoaded) partitions the same ones, and
// both records (Closed) and the modeled machine time (Cycles) read the one
// count.  A Loaded is immutable and serves concurrent runs: what its
// methods return is shared, and read only.
type Loaded struct {
	cfg      Config // the program fields: Cells, Cell, IU, Host, Skew, Lead
	code     mcode.Decoded
	codeErr  error
	iu       mcode.IUCode
	iuErr    error
	count    mcode.CellCounts
	countErr error
	times    []int64 // how often a cell runs each word
}

// Load decodes and counts the program cfg's program fields describe
// (Cells, Cell, IU, Host, Skew and Lead; the run fields are not read).
// What the decoders and the count refuse is kept, not returned: each
// executor refuses what it cannot run, in its own order.
func Load(cfg Config) *Loaded {
	l := &Loaded{cfg: Config{Cells: cfg.Cells, Cell: cfg.Cell, IU: cfg.IU, Host: cfg.Host, Skew: cfg.Skew, Lead: cfg.Lead}}
	code, err := mcode.Decode(cfg.Cell)
	l.code, l.codeErr = *code, err
	l.iu, l.iuErr = mcode.DecodeIU(cfg.IU)
	l.count, l.countErr = mcode.CountCell(cfg.Cell)
	// Every cell runs every word as often as the trip counts around it
	// multiply to, a trip count below one counting once, as the do-while
	// sequencer runs it.
	l.times = make([]int64, len(code.Words))
	for j := range code.Words {
		w := &code.Words[j]
		l.times[j] = 1
		for _, e := range code.Ends[w.EndLo:w.EndHi] {
			for k := e.Head; k <= j; k++ {
				l.times[k] *= max(e.Trips, 1)
			}
		}
	}
	return l
}

// Config returns the program fields the program was loaded from.
func (l *Loaded) Config() Config { return l.cfg }

// Code returns the decoded cell program and mcode.Decode's error.
func (l *Loaded) Code() (*mcode.Decoded, error) { return &l.code, l.codeErr }

// IU returns the decoded IU program and mcode.DecodeIU's error.
func (l *Loaded) IU() (*mcode.IUCode, error) { return &l.iu, l.iuErr }

// Count returns one cell's run in closed form and mcode.CountCell's
// overflow error.
func (l *Loaded) Count() (mcode.CellCounts, error) { return l.count, l.countErr }

// Cycles is the machine time of a run that never stalls: the last cell
// starts at Lead + (Cells−1)·Skew, and the run reports one past the last
// of its cycles — an empty cell program still costs its start.
func (l *Loaded) Cycles() int64 {
	return l.cfg.Lead + int64(l.cfg.Cells-1)*l.cfg.Skew + max(l.count.Cycles, 1)
}

// LaneBytes is the machine state one problem adds to a batched walk: per
// cell its registers and writes in flight, its X and Y queue words and
// its memory envelope.  It is 0 for a program that does not walk batched.
func (l *Loaded) LaneBytes() int {
	if l.codeErr != nil || l.code.Unbound != nil {
		return 0
	}
	return 8 * l.cfg.Cells * (mcode.LaneRegWords + 2*mcode.QueueDepth + l.code.MemWords)
}

// numPCs is the number of µPCs of the decoded words: a word covers its
// idle µPCs and its issuing one, back to back, so the last word ends them.
func numPCs(words []mcode.Word) int {
	if k := len(words); k > 0 {
		return int(words[k-1].PC) + int(words[k-1].Skip) + 1
	}
	return 0
}

// Closed returns the record of a run (with per-µPC busy counters when
// pcStats is set) as far as the program alone decides it.  Each cell's
// busy cycles, FPU, move, load and store counts and the last cell's sends
// are the count's; its depth rows and per-µPC busy counters are sums over
// the words, each run as often as the trip counts around it multiply to.
// Cell i starts at Lead + i·Skew and never stalls (Cycles), every idle
// cycle a bubble: the simulator lays what its cycle loop measures over
// this, and the fast executor returns it as it is.
func (l *Loaded) Closed(pcStats bool) *Stats {
	words, cells, c := l.code.Words, l.cfg.Cells, &l.count
	finish := make([]int64, cells)
	pcs := numPCs(words)
	var busyPC []int64
	if pcStats {
		busyPC = make([]int64, cells*pcs)
	}
	rows := max(4, l.code.Depth+1) // the depth profile has always had at least four
	depth := make([]obs.DepthProfile, cells*rows)
	cell := obs.CellProfile{ // one cell's run
		Busy: c.Ops, Bubble: c.Cycles - c.Ops, AddOps: c.AddOps, MulOps: c.MulOps, MovOps: c.MovOps,
		Loads: c.Loads, Stores: c.Stores, Depth: depth[:rows:rows],
	}
	for i := range words {
		w, k := &words[i], l.times[i]
		dp := &cell.Depth[w.Depth]
		dp.Cycles += k * (int64(w.Skip) + 1)
		if w.Nop {
			continue
		}
		if busyPC != nil {
			busyPC[int(w.PC)+int(w.Skip)] = k
		}
		if w.HasAdd {
			dp.AddOps += k
		}
		if w.HasMul {
			dp.MulOps += k
		}
	}

	// One allocation holds the record and its profile.
	rec := &struct {
		Stats
		prof obs.Profile
	}{}
	st, prof := &rec.Stats, &rec.prof
	st.Cycles = l.Cycles()
	st.CellFinish = finish
	st.Sent = make(map[w2.Channel]int, len(c.Send))
	for ch, n := range c.Send {
		if n > 0 {
			st.Sent[w2.Channel(ch)] = int(n)
		}
	}
	st.AddOps, st.MulOps = c.AddOps*int64(cells), c.MulOps*int64(cells)
	*prof = obs.Profile{Cells: cells, Cycles: st.Cycles, Skew: l.cfg.Skew, Lead: l.cfg.Lead, Cell: make([]obs.CellProfile, cells)}
	if busyPC != nil {
		prof.PC = make([]obs.PCProfile, cells)
	}
	st.Obs = prof
	for i := range prof.Cell {
		cp := &prof.Cell[i]
		*cp = cell
		cp.SkewLead = int64(i) * l.cfg.Skew
		cp.Start = l.cfg.Lead + cp.SkewLead
		cp.Finish = cp.Start + max(c.Cycles-1, 0)
		cp.Drain = st.Cycles - 1 - cp.Finish
		finish[i] = cp.Finish
		st.CellActive += cp.Active()
		cp.Depth = depth[i*rows : (i+1)*rows : (i+1)*rows]
		copy(cp.Depth, cell.Depth)
		if busyPC != nil {
			prof.PC[i].Busy = busyPC[i*pcs : (i+1)*pcs : (i+1)*pcs]
			copy(prof.PC[i].Busy, busyPC[:pcs])
		}
	}
	return st
}
