package sim

// SetGroups fixes every run's group count, its size and the helper budget
// aside, until the returned function restores the default.  A run with a
// recorder, or of one cell, still walks in one group.
func SetGroups(n int) (restore func()) {
	old := forceGroups
	forceGroups = n
	return func() { forceGroups = old }
}
