package warp

import (
	"reflect"

	"warp/internal/driver"
	"warp/internal/mcode"
)

// RunPartitionedPerTile is RunPartitioned with every tile on the
// per-tile path: the reference of the farm differential.
func (p *Program) RunPartitionedPerTile(cfg RunConfig, prob Problem) (map[string][]float64, *FabricStats, error) {
	return p.runPartitioned(cfg, prob, false)
}

// MoveMemoryFields moves the address every memory field of the compiled
// cell program names by k words and leaves the IU's address stream as it
// is: runs alone are unchanged, but the words the fields are bound to no
// longer hold the addresses the IU sends.  The compile's load decoded the
// fields as they were, so p gets a fresh driver.Compiled holding every
// exported field of the old one and none of its caches: it loads the
// moved fields on its first run.  Verified is kept on purpose, though it
// reports on the unmoved load: the fault is the program drifting from
// what was proven.
func (p *Program) MoveMemoryFields(k int) {
	mcode.WalkInstrs(p.c.Cell.Items, func(in *mcode.Instr, _ []*mcode.LoopItem) {
		for i := range in.Mem {
			if mo := &in.Mem[i]; mo.Kind != mcode.MemNone {
				mo.Addr.Base += k
			}
		}
	})
	old := reflect.ValueOf(p.c).Elem()
	fresh := reflect.New(old.Type()).Elem()
	for i := range old.NumField() {
		if old.Type().Field(i).IsExported() {
			fresh.Field(i).Set(old.Field(i))
		}
	}
	p.c = fresh.Addr().Interface().(*driver.Compiled)
}
