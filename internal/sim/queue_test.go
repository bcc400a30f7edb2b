package sim

import (
	"strings"
	"testing"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/w2"
)

// Table-driven tests for the 128-word ring at the heart of the machine:
// ordering under interleaved traffic that wraps the ring, the exact
// overflow and underflow boundaries, same-cycle push+pop at full and at empty (the machine
// steps agents upstream-first, so within a cycle the push always lands
// before the downstream pop), and the push-time high-water accounting
// that feeds Stats.MaxQueue/MaxQueueAt.

func TestQueueOps(t *testing.T) {
	type op struct {
		push    bool
		v       int // value pushed, or expected value popped
		wantErr string
	}
	pushN := func(lo, hi int) []op {
		var ops []op
		for v := lo; v < hi; v++ {
			ops = append(ops, op{push: true, v: v})
		}
		return ops
	}
	popN := func(lo, hi int) []op {
		var ops []op
		for v := lo; v < hi; v++ {
			ops = append(ops, op{v: v})
		}
		return ops
	}
	seq := func(groups ...[]op) []op {
		var ops []op
		for _, g := range groups {
			ops = append(ops, g...)
		}
		return ops
	}

	const depth = mcode.QueueDepth
	tests := []struct {
		name     string
		ops      []op
		wantHigh int
		wantLen  int
	}{
		{
			name:     "fifo-order",
			ops:      seq(pushN(0, 3), popN(0, 3)),
			wantHigh: 3,
		},
		{
			// The ring recycles: fill, half-drain, refill across the
			// wrap point, and the words still come out in push order.
			name: "interleaved-wraparound",
			ops: seq(
				pushN(0, depth), popN(0, depth/2),
				pushN(depth, depth+depth/2), popN(depth/2, depth+depth/2),
				pushN(depth+depth/2, 2*depth+depth/4), popN(depth+depth/2, 2*depth+depth/4),
			),
			wantHigh: depth,
		},
		{
			name:     "pop-empty-underflows",
			ops:      []op{{wantErr: "underflow"}},
			wantHigh: 0,
		},
		{
			// Same cycle, upstream first: the push hits the full queue
			// before the downstream pop can make room.
			name:     "same-cycle-push-pop-at-full",
			ops:      seq(pushN(0, depth), []op{{push: true, v: depth, wantErr: "overflow"}, {v: 0}}),
			wantHigh: depth,
			wantLen:  depth - 1,
		},
		{
			// Same cycle at empty: upstream-first order is what makes a
			// push poppable downstream within the cycle.
			name:     "same-cycle-push-pop-at-empty",
			ops:      seq(pushN(0, 1), popN(0, 1)),
			wantHigh: 1,
		},
		{
			// Exactly the hardware depth fits; the high-water mark
			// records the boundary exactly, not one off.
			name:     "high-water-at-hardware-depth",
			ops:      seq(pushN(0, depth), popN(0, depth)),
			wantHigh: depth,
		},
		{
			name:     "overflow-just-past-hardware-depth",
			ops:      seq(pushN(0, depth), []op{{push: true, v: depth, wantErr: "overflow"}}),
			wantHigh: depth,
			wantLen:  depth,
		},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var q queue[int]
			q.init(1, obs.QueueX, nil)
			var pushes, pops int64
			for i, o := range tc.ops {
				if o.push {
					err := q.push(o.v)
					if o.wantErr == "" {
						if err != nil {
							t.Fatalf("op %d: push(%d): %v", i, o.v, err)
						}
						pushes++
					} else if err == nil || !strings.Contains(err.Error(), o.wantErr) {
						t.Fatalf("op %d: push(%d) err = %v, want %q", i, o.v, err, o.wantErr)
					}
					continue
				}
				v, err := q.pop()
				if o.wantErr == "" {
					if err != nil {
						t.Fatalf("op %d: pop: %v", i, err)
					}
					if v != o.v {
						t.Fatalf("op %d: pop = %d, want %d (FIFO order broken)", i, v, o.v)
					}
					pops++
				} else if err == nil || !strings.Contains(err.Error(), o.wantErr) {
					t.Fatalf("op %d: pop err = %v, want %q", i, err, o.wantErr)
				}
			}
			if q.high != tc.wantHigh {
				t.Errorf("high water = %d, want %d", q.high, tc.wantHigh)
			}
			if q.n != tc.wantLen {
				t.Errorf("final length = %d, want %d", q.n, tc.wantLen)
			}
			p := q.profile()
			if p.HighWater != tc.wantHigh || p.Pushes != pushes || p.Pops != pops {
				t.Errorf("profile = {high %d, pushes %d, pops %d}, want {%d, %d, %d}",
					p.HighWater, p.Pushes, p.Pops, tc.wantHigh, pushes, pops)
			}
			if p.Name != "cell1.X" || p.Cell != 1 || p.Queue != obs.QueueX {
				t.Errorf("profile identity = %q cell %d queue %v", p.Name, p.Cell, p.Queue)
			}
		})
	}
}

// TestStatsNamesHighWaterQueue runs a small machine and checks that
// Stats.MaxQueue/MaxQueueAt report the exact push-time peak and name
// the queue that reached it: three words pile up in cell 1's X queue
// because the downstream program drains only after a delay.
func TestStatsNamesHighWaterQueue(t *testing.T) {
	recv := func(r mcode.Reg) mcode.IOOp {
		return mcode.IOOp{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: r}
	}
	send := func(r mcode.Reg) mcode.IOOp {
		return mcode.IOOp{Recv: false, Dir: w2.DirR, Chan: w2.ChanX, Reg: r}
	}
	// Each cell receives 3 words then sends them: with skew 5 (two more
	// than the 3-cycle send/receive offset between the programs), all of
	// the upstream cell's sends land before the downstream cell's first
	// receive drains, so the inter-cell queue peaks at 3.
	prog := &mcode.CellProgram{Items: []mcode.CodeItem{
		&mcode.Straight{Instrs: []*mcode.Instr{
			{IO: []mcode.IOOp{recv(1)}},
			{IO: []mcode.IOOp{recv(2)}},
			{IO: []mcode.IOOp{recv(3)}},
			{IO: []mcode.IOOp{send(1)}},
			{IO: []mcode.IOOp{send(2)}},
			{IO: []mcode.IOOp{send(3)}},
		}},
	}}
	host := &hostgen.Program{
		In:  map[w2.Channel]hostgen.Stream{w2.ChanX: hostgen.Of(hostgen.Word{Index: 0}, hostgen.Word{Index: 1}, hostgen.Word{Index: 2})},
		Out: map[w2.Channel]hostgen.Stream{w2.ChanX: hostgen.Of(hostgen.Word{Index: 3}, hostgen.Word{Index: 4}, hostgen.Word{Index: 5})},
	}
	stats, err := Run(Config{
		Cells: 2, Cell: prog, IU: &mcode.IUProgram{}, Host: host,
		Skew: 5, Lead: 1, HostMem: []float64{7, 8, 9, 0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxQueue != 3 {
		t.Errorf("MaxQueue = %d, want 3", stats.MaxQueue)
	}
	if stats.MaxQueueAt != "cell1.X" {
		t.Errorf("MaxQueueAt = %q, want cell1.X", stats.MaxQueueAt)
	}
}
