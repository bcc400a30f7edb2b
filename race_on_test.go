//go:build race

package warp_test

// raceEnabled reports that the test binary runs under the race detector,
// whose runtime makes testing.AllocsPerRun counts wobble.
const raceEnabled = true
