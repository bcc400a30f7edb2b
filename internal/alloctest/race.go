//go:build race

package alloctest

// Race reports that the race detector is on: its sync.Pool drops Puts
// at random, so a pooled path's count wobbles.
const Race = true
