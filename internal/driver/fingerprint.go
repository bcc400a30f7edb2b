package driver

import (
	"fmt"
	"sort"
	"strings"

	"warp/internal/w2"
)

// Fingerprint reduces one compilation to the byte string the
// determinism contract pins: every output a consumer can observe —
// microcode listings, the host I/O program (its streams' loop nests and
// word counts, as hostgen.Stream renders them), skew and proven queue
// occupancy, the scheduler's deterministic counters, and the verifier
// report — rendered in a canonical order.  Wall-clock measurements
// (phase Seconds, SearchNS, SkewNS) are deliberately excluded: they
// are measurements of the compile, not outputs of it.
//
// Two compilations with equal fingerprints are interchangeable: they
// simulate to the same cycle counts and outputs.  The compile
// equivalence harness pins concurrent callers to a lone compile with it,
// and the service pins a bounds request's program against a compile of
// the generator's concrete source with it.
func Fingerprint(c *Compiled) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cells=%d skew=%d backoff=%v %q\n", c.Cells, c.Skew, c.PipelineBackoff, c.BackoffReason)
	sb.WriteString(c.Cell.Listing())
	sb.WriteString(c.IU.Listing())

	for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
		fmt.Fprintf(&sb, "in %s: %s\nout %s: %s\n", ch, c.Host.In[ch], ch, c.Host.Out[ch])
	}

	var occ []string
	for ch, n := range c.QueueOcc {
		occ = append(occ, fmt.Sprintf("occ %s=%d", ch, n))
	}
	sort.Strings(occ)
	sb.WriteString(strings.Join(occ, " ") + "\n")

	// Scheduler introspection: the counters are part of the contract,
	// the nanosecond fields are not.
	st := c.Sched.Totals()
	fmt.Fprintf(&sb, "sched loops=%d pipelined=%d attempts=%d placements=%d evictions=%d emitrejects=%d skewops=%d skewpairs=%d skewpruned=%d\n",
		st.Loops, st.Pipelined, st.Attempts, st.Placements, st.Evictions, st.EmitRejects,
		st.SkewOps, st.SkewPairs, st.SkewPruned)
	for _, k := range c.Sched.Skews {
		fmt.Fprintf(&sb, "skewsearch %s method=%s ops=%d pairs=%d pruned=%d skew=%d\n",
			k.Channel, k.Method, k.Ops, k.Pairs, k.Pruned, k.Skew)
	}

	rep := c.Verified
	fmt.Fprintf(&sb, "verified checked=%d lead=%d memrefs=%d signals=%d\n",
		rep.Checked, rep.Lead, rep.MemRefs, rep.Signals)
	var vocc []string
	for ch, o := range rep.Data {
		vocc = append(vocc, fmt.Sprintf("vocc %s max=%d method=%s sends=%d recvs=%d",
			ch, o.Max, o.Method, rep.Sends[ch], rep.Recvs[ch]))
	}
	sort.Strings(vocc)
	sb.WriteString(strings.Join(vocc, "\n") + "\n")
	fmt.Fprintf(&sb, "adr max=%d method=%s sig max=%d method=%s\n",
		rep.Adr.Max, rep.Adr.Method, rep.Sig.Max, rep.Sig.Method)
	return sb.String()
}
