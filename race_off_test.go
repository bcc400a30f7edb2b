//go:build !race

package warp_test

const raceEnabled = false
