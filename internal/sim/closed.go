package sim

import (
	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/w2"
)

// ModeledCycles is the machine time of a run that never stalls: the last
// cell starts at lead + (cells−1)·skew, and the run reports one past the
// last of its cellCycles — an empty cell program still costs its start.
func ModeledCycles(cells int, skew, lead, cellCycles int64) int64 {
	return lead + int64(cells-1)*skew + max(cellCycles, 1)
}

// numPCs is the number of µPCs of the decoded words: a word covers its
// idle µPCs and its issuing one, back to back, so the last word ends them.
func numPCs(words []mcode.Word) int {
	if k := len(words); k > 0 {
		return int(words[k-1].PC) + int(words[k-1].Skip) + 1
	}
	return 0
}

// Closed returns the record of a run of code on cfg's array (it reads
// Cells, Skew, Lead and PCStats) as far as the program alone decides it.
// W2 has no data-dependent control: every cell runs every word as often
// as the trip counts around it multiply to (a trip count below one
// counting once, as the do-while sequencer runs it), so each cell's busy
// cycles, FPU, move, load and store counts, depth rows, per-µPC busy
// counters and the last cell's sends are sums over the words.  Cell i
// starts at Lead + i·Skew and never stalls (ModeledCycles), every idle
// cycle a bubble: the simulator lays what its cycle loop measures over
// this, and the fast executor returns copies of it.
func Closed(cfg Config, code *mcode.Decoded) *Stats {
	words, cells := code.Words, cfg.Cells
	// One arena: the cells' finishes, then how often a cell runs each word.
	ints := make([]int64, cells+len(words))
	finish, times := ints[:cells:cells], ints[cells:]
	for j := range words {
		w := &words[j]
		times[j] = 1
		for _, e := range code.Ends[w.EndLo:w.EndHi] {
			for k := e.Head; k <= j; k++ {
				times[k] *= max(e.Trips, 1)
			}
		}
	}
	pcs := numPCs(words)
	var busyPC []int64
	if cfg.PCStats {
		busyPC = make([]int64, cells*pcs)
	}
	rows := max(4, code.Depth+1) // the depth profile has always had at least four
	depth := make([]obs.DepthProfile, cells*rows)
	var cell obs.CellProfile // one cell's run
	cell.Depth = depth[:rows:rows]
	var sent [2]int64
	var cycles int64 // one cell's
	for i := range words {
		w, k := &words[i], times[i]
		dp, n := &cell.Depth[w.Depth], k*(int64(w.Skip)+1)
		dp.Cycles, cycles = dp.Cycles+n, cycles+n
		if w.Nop {
			continue
		}
		cell.Busy += k
		if busyPC != nil {
			busyPC[int(w.PC)+int(w.Skip)] = k
		}
		if w.HasAdd {
			cell.AddOps += k
			dp.AddOps += k
		}
		if w.HasMul {
			cell.MulOps += k
			dp.MulOps += k
		}
		if w.HasMov {
			cell.MovOps += k
		}
		for _, o := range code.Ops[w.Lo:w.Hi] {
			switch o.Kind {
			case mcode.OpLoad:
				cell.Loads += k
			case mcode.OpStore:
				cell.Stores += k
			case mcode.OpSend:
				sent[o.X] += k
			}
		}
	}
	cell.Bubble = cycles - cell.Busy

	// One allocation holds the record and its profile.
	rec := &struct {
		Stats
		prof obs.Profile
	}{}
	st, prof := &rec.Stats, &rec.prof
	st.Cycles = ModeledCycles(cells, cfg.Skew, cfg.Lead, cycles)
	st.CellFinish = finish
	st.Sent = make(map[w2.Channel]int, len(sent))
	for ch, n := range sent {
		if n > 0 {
			st.Sent[w2.Channel(ch)] = int(n)
		}
	}
	st.AddOps, st.MulOps = cell.AddOps*int64(cells), cell.MulOps*int64(cells)
	*prof = obs.Profile{Cells: cells, Cycles: st.Cycles, Skew: cfg.Skew, Lead: cfg.Lead, Cell: make([]obs.CellProfile, cells)}
	if busyPC != nil {
		prof.PC = make([]obs.PCProfile, cells)
	}
	st.Obs = prof
	for i := range prof.Cell {
		cp := &prof.Cell[i]
		*cp = cell
		cp.SkewLead = int64(i) * cfg.Skew
		cp.Start = cfg.Lead + cp.SkewLead
		cp.Finish = cp.Start + max(cycles-1, 0)
		cp.Drain = st.Cycles - 1 - cp.Finish
		finish[i] = cp.Finish
		st.CellActive += cp.Finish - cp.Start
		cp.Depth = depth[i*rows : (i+1)*rows : (i+1)*rows]
		copy(cp.Depth, cell.Depth)
		if busyPC != nil {
			prof.PC[i].Busy = busyPC[i*pcs : (i+1)*pcs : (i+1)*pcs]
			copy(prof.PC[i].Busy, busyPC[:pcs])
		}
	}
	return st
}
