package main

import "time"

// hostClock measures how fast the host is while a pass runs.
//
// The reference host is a 2-vCPU virtual machine whose speed drifts
// with its neighbours: over ten minutes the same operation was seen to
// take between 8 and 13 ms, and between two sets of ten runs an hour
// apart every library workload lost a fifth of its throughput — swings
// no bound of the ledger could hold.  A plain loop summing an 8 MB
// buffer, timed beside the workloads, moved in step with them
// (correlation 0.95 with a memory-bound workload over 6 s windows).  So
// every pass times that loop between its units of work, and every time
// it reports is divided by the pass's host factor: the loop's median
// time over its time on the reference host at its usual speed.  A time
// of the ledger therefore reads "at reference host speed"; what the
// program does moves it, what the neighbours do moves it less (the
// workloads feel the host about one and a half times as much as the
// loop does, so the correction is partial).
//
// The probe is the benchmark's own code and touches neither the Go heap
// nor anything of the repository, so no change under test can move it.
// (A second loop that allocated short-lived objects tracked the
// allocation-heavy workloads better still, but its time also depends on
// how large the workload's heap is at that moment, which a change under
// test can move.)
type hostClock struct {
	buf     []float64
	samples []float64 // ms
}

const (
	// probeWords × probePasses float64s are summed per probe: an 8 MB
	// buffer (beyond the 2 MB L2, small enough to leave the collector's
	// pacing alone) read eight times.
	probeWords  = 1 << 20
	probePasses = 8
	// referenceProbeMS is the probe's time on the reference host at its
	// usual speed; it only fixes the scale of the calibrated times.
	referenceProbeMS = 7.0
)

var probeSink float64

func newHostClock() *hostClock {
	c := &hostClock{buf: make([]float64, probeWords)}
	for i := range c.buf {
		c.buf[i] = float64(i & 7)
	}
	return c
}

// tick times one probe.
func (c *hostClock) tick() {
	start := time.Now()
	var s float64
	for p := 0; p < probePasses; p++ {
		for _, x := range c.buf {
			s += x
		}
	}
	probeSink = s
	c.samples = append(c.samples, ms(time.Since(start)))
}

// factor is how much slower than the reference the host ran over the
// probes since the last call: above 1 on a slow host.  It resets the
// clock for the next pass.
func (c *hostClock) factor() float64 {
	f := median(c.samples) / referenceProbeMS
	c.samples = c.samples[:0]
	if f <= 0 {
		return 1
	}
	return f
}
