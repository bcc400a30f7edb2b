package fastexec

import "warp/internal/sim"

// Partition is partition, for the stream's own test.
var Partition = partition

// Build builds a plan with no report, for the tests that pin the landing
// model to the simulator on programs outside the verifier's rules: a
// register read before its FPU result lands, two writes in one cycle.
func Build(p sim.Config) (*Plan, error) {
	return build(sim.Load(p))
}

// SetCellWorkers fixes every run's worker count, its size and the helper
// budget aside, until the returned function restores the default.
func SetCellWorkers(n int) (restore func()) {
	old := forceWorkers
	forceWorkers = n
	return func() { forceWorkers = old }
}
