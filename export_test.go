package warp

// RunPartitionedPerTile is RunPartitioned with every tile on the
// per-tile path: the reference of the farm differential.
func (p *Program) RunPartitionedPerTile(cfg RunConfig, prob Problem) (map[string][]float64, *FabricStats, error) {
	return p.runPartitioned(cfg, prob, false)
}
