package warp

import "warp/internal/mcode"

// RunPartitionedPerTile is RunPartitioned with every tile on the
// per-tile path: the reference of the farm differential.
func (p *Program) RunPartitionedPerTile(cfg RunConfig, prob Problem) (map[string][]float64, *FabricStats, error) {
	return p.runPartitioned(cfg, prob, false)
}

// MoveMemoryFields moves the address every memory field of the compiled
// cell program names by k words and leaves the IU's address stream as it
// is: runs alone are unchanged, but the words the fields are bound to no
// longer hold the addresses the IU sends.
func (p *Program) MoveMemoryFields(k int) {
	mcode.WalkInstrs(p.c.Cell.Items, func(in *mcode.Instr, _ []*mcode.LoopItem) {
		for i := range in.Mem {
			if mo := &in.Mem[i]; mo.Kind != mcode.MemNone {
				mo.Addr.Base += k
			}
		}
	})
}
