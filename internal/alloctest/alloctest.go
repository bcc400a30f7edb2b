// Package alloctest is what allocation-counting tests share.
package alloctest

import (
	"runtime/debug"
	"testing"
)

// AllocsPerRun is testing.AllocsPerRun with the collector off for the
// measured window: a collection inside it empties every sync.Pool, and
// the run that refills one counts allocations a warm run never makes.
func AllocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}
