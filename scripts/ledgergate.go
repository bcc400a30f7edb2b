// Command ledgergate holds the host-independent numbers of one ledger run
// (`bash benchmark/run.sh --seed 1 --out DIR` writes DIR/results.json) to
// the tables below: no failed operation in any pass, every workload's
// simulated cycles, µcode words and makespan exactly as recorded, the
// verifier's proposition count, and the fast executor no slower than the
// simulator on any program and at least speedupFloor times as fast in the
// geomean.  That ratio is the one wall-clock number gated: both backends
// run the same programs in the same process, so it cancels the host.
//
// The numbers are a seed-1 run's; re-record a row only with the change
// that is meant to move it (EXPERIMENTS.md, "Pinned baselines and the
// ledger gate").
//
// Usage:
//
//	go run ./scripts/ledgergate.go .bench_build/ci/results.json
//
// Exit status: 0 when every row holds, 1 when one does not, 2 on usage or
// I/O errors.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// cycles is each workload's untraced pass: sim_cycles, ucode_words,
// makespan_cycles.
var cycles = []struct {
	workload             string
	sim, ucode, makespan float64
}{
	{"compile-cold", 3491372, 1809, 3491372},
	{"exec-sim", 788012, 1809, 788012},
	{"exec-fast", 788012, 1809, 788012},
	{"template-sweep", 111657, 2025, 111657},
	{"serve-warm", 8732, 747, 8732},
	{"serve-churn", 87335, 8476, 87335},
	{"fabric-farm", 424922, 380, 212778},
}

// speedupFloor bounds fastexec.speedup_vs_sim, the geomean over the eight
// programs of simulator wall over fast-executor wall, from below; it reads
// 2.8–3.4 on the 2-vCPU development host.
const speedupFloor = 1.9

// layers are the traced passes' gated counts; floor rows may read higher.
// verify.propositions is exact: 173 over the eight programs, one
// addr-value proposition each on top of the 165 before it.
var layers = []struct {
	result, metric string
	want           float64
	floor          bool
}{
	{"compile-cold/traced", "verify.propositions", 173, false},
	{"exec-fast/traced", "fastexec.programs_slower_than_sim", 0, false},
	{"exec-fast/traced", "fastexec.speedup_vs_sim", speedupFloor, true},
}

type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// num prints a cycle count in full (%g writes 3491372 as 3.491372e+06).
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ledgergate results.json")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgergate:", err)
		os.Exit(2)
	}
	var ledger struct {
		Results map[string]result `json:"results"`
	}
	if err := json.Unmarshal(data, &ledger); err != nil {
		fmt.Fprintf(os.Stderr, "ledgergate: %s: %v\n", os.Args[1], err)
		os.Exit(2)
	}

	bad := 0
	failf := func(format string, args ...any) {
		fmt.Printf("ledgergate: FAIL: "+format+"\n", args...)
		bad++
	}
	check := func(key, metric string, want float64, floor bool) {
		m, ok := ledger.Results[key].Metrics[metric]
		switch {
		case !ok:
			failf("%s: no metric %s", key, metric)
		case floor && m.Value < want:
			failf("%s %s = %s, below the floor %s", key, metric, num(m.Value), num(want))
		case !floor && m.Value != want:
			failf("%s %s = %s, recorded %s", key, metric, num(m.Value), num(want))
		}
	}
	for _, c := range cycles {
		for _, pass := range []string{"/untraced", "/traced"} {
			if r, ok := ledger.Results[c.workload+pass]; !ok {
				failf("%s: pass missing from the run", c.workload+pass)
			} else if r.Failed != 0 || !r.Correct {
				failf("%s: %d failed operations, correct=%v", c.workload+pass, r.Failed, r.Correct)
			}
		}
		check(c.workload+"/untraced", "sim_cycles", c.sim, false)
		check(c.workload+"/untraced", "ucode_words", c.ucode, false)
		check(c.workload+"/untraced", "makespan_cycles", c.makespan, false)
	}
	for _, l := range layers {
		check(l.result, l.metric, l.want, l.floor)
	}
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("ledgergate: PASS (%d passes, %d gated numbers)\n", 2*len(cycles), 3*len(cycles)+len(layers))
}
