package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden")

// TestUtilizationExperiment runs the utilization experiment, whose jobs
// compile, simulate and trace concurrently with one recorder each —
// under `go test -race` this is the concurrency check on the obs layer.
func TestUtilizationExperiment(t *testing.T) {
	if err := utilization(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestExperimentsGolden pins the reproduction byte for byte: every
// experiment whose output is a pure function of the code, as
// `warpbench -exp all` prints it.  The four left out print wall times;
// their deterministic columns (Table 7-1's sizes, the fabric's tiles and
// cycles, the backend comparison's cycles) are root TestPinnedBaselines'
// rows.  Refresh with `go test ./cmd/warpbench -run TestExperimentsGolden
// -update` when a table is meant to change, and update DESIGN §3 and
// EXPERIMENTS.md with it.
func TestExperimentsGolden(t *testing.T) {
	wall := map[string]bool{"table7-1": true, "hotspot": true, "fabric": true, "fastexec": true}
	var got bytes.Buffer
	for _, e := range experiments {
		if wall[e.name] {
			continue
		}
		if err := e.render(&got); err != nil {
			t.Fatal(err)
		}
	}
	const path = "testdata/experiments.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		i := 0
		for i < len(want) && i < got.Len() && want[i] == got.Bytes()[i] {
			i++
		}
		line := 1 + bytes.Count(want[:i], []byte("\n"))
		t.Errorf("%s: the experiments' output changed at line %d; run with -update if intended", path, line)
	}
}
