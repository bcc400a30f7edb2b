package verify

import (
	"fmt"
	"strings"
)

// Invariant names one machine guarantee the verifier discharges.  Every
// Diagnostic carries the invariant it violates, so callers (w2c, warpd)
// can report failures structurally.
type Invariant string

// The verified invariants.  DESIGN.md ("Verified invariants") maps each
// to the paper's guarantee it re-states.
const (
	// InvStructure: the microcode violates a structural machine
	// constraint (register range, field usage, loop shape, channel
	// direction) before any timing question arises.
	InvStructure Invariant = "structure"
	// InvQueueBalance: a channel's dynamic send and receive counts
	// differ, so the inter-cell queue cannot drain.
	InvQueueBalance Invariant = "queue-balance"
	// InvSkew: a receive is not covered by the compiled skew — it would
	// execute before the matching send of the upstream cell (queue
	// underflow, §6.2.1).
	InvSkew Invariant = "skew-coverage"
	// InvQueueOverflow: the proven peak queue occupancy exceeds the
	// 128-word hardware queue (§6.2.2).
	InvQueueOverflow Invariant = "queue-overflow"
	// InvFPULatency: a register is read before its producing FPU
	// result has traversed the 5-stage pipeline.
	InvFPULatency Invariant = "fpu-latency"
	// InvDefBeforeUse: a register is read before any write defines it.
	InvDefBeforeUse Invariant = "def-before-use"
	// InvAddrStream: the IU address stream does not match the cells'
	// memory-reference consumption (count, timing, or an address
	// outside the 4K-word cell memory).
	InvAddrStream Invariant = "addr-stream"
	// InvAddrValue: an address the IU emits is not the one the memory
	// field that pops it is bound to (mcode.Decode's binding, the one the
	// fast executor runs), or lies outside the words those fields are
	// bound to.
	InvAddrValue Invariant = "addr-value"
	// InvSigStream: the IU loop-control signal stream does not match
	// the boundaries the cell sequencer crosses.
	InvSigStream Invariant = "sig-stream"
	// InvHostStream: the host I/O programs do not cover the boundary
	// cells' queue traffic word for word.
	InvHostStream Invariant = "host-stream"
	// InvUnproven: a proof would exceed its work budget (a queue whose
	// pushes and pops share no loop period over millions of events, a
	// failed IU proof with more events than are enumerated to name the
	// violation); the program is rejected as unprovable, not as wrong.
	InvUnproven Invariant = "unproven"
)

// Diagnostic is one verification failure, located as precisely as the
// failing invariant allows.
type Diagnostic struct {
	Invariant Invariant `json:"invariant"`
	// Cell is the cell index the violation manifests on (the consuming
	// cell for queue invariants), or -1 when it concerns the IU or the
	// whole array.
	Cell int `json:"cell"`
	// Instr is the static microinstruction index in listing order
	// (cell program for cell-side invariants, IU program for IU-side),
	// or -1 when no single instruction is at fault.
	Instr int `json:"instr"`
	// Loop is the loop ID involved, or -1.
	Loop int `json:"loop"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail"`
}

func (d Diagnostic) String() string {
	var loc []string
	if d.Cell >= 0 {
		loc = append(loc, fmt.Sprintf("cell %d", d.Cell))
	}
	if d.Instr >= 0 {
		loc = append(loc, fmt.Sprintf("instr %d", d.Instr))
	}
	if d.Loop >= 0 {
		loc = append(loc, fmt.Sprintf("loop L%d", d.Loop))
	}
	where := strings.Join(loc, " ")
	if where != "" {
		where += " "
	}
	return fmt.Sprintf("%s[%s]: %s", where, d.Invariant, d.Detail)
}

// Error aggregates every diagnostic of one verification run: the
// verifier checks all invariants rather than stopping at the first
// violation, so one rejection names every broken proposition.
type Error struct {
	Diags []Diagnostic
}

func (e *Error) Error() string {
	if len(e.Diags) == 1 {
		return "verify: " + e.Diags[0].String()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "verify: %d invariant violations:", len(e.Diags))
	for _, d := range e.Diags {
		sb.WriteString("\n  ")
		sb.WriteString(d.String())
	}
	return sb.String()
}
