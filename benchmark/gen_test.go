package main

import (
	"fmt"
	"testing"
)

// TestGeneratorPinned pins the first draws of every workload's input
// stream for seed 1: the same seed must give the same inputs on every
// host and in every later version of the benchmark, or its numbers stop
// being comparable.
func TestGeneratorPinned(t *testing.T) {
	got := map[string]string{}

	r := newRand(1, "p8-inputs")
	in := programs()[0].inputs(r)
	got["p8 polynomial z[0:2]"] = fmt.Sprintf("%.6f %.6f", in["z"][0], in["z"][1])

	r = newRand(1, "template-traffic")
	got["template matmul traffic[0:5]"] = fmt.Sprint(sizeTraffic(r, families[0], drawsPerTemplate)[:5])
	got["template polynomial traffic[0:3]"] = fmt.Sprint(sizeTraffic(r, families[1], drawsPerTemplate)[:3])

	for _, churn := range []bool{false, true} {
		w := &serveWorkload{seed: 1, churn: churn, clients: 2}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, k := range w.stream(0, 4) {
			names = append(names, k.name)
		}
		w.close()
		got[fmt.Sprintf("serve churn=%v client 0 [0:4]", churn)] = fmt.Sprint(names)
	}

	r = newRand(1, "fabric-inputs")
	got["fabric quarters[0:4]"] = fmt.Sprint(quarters(r, 4))

	want := map[string]string{
		"p8 polynomial z[0:2]":             "-0.721072 0.064670",
		"template matmul traffic[0:5]":     "[n=8 n=4 n=16 n=31 n=24]",
		"template polynomial traffic[0:3]": "[ncoef=10,npoints=100 ncoef=4,npoints=56 ncoef=10,npoints=200]",
		"serve churn=false client 0 [0:4]": "[concrete/matmul(n=10) concrete/conv1d(k=9,n=512) concrete/polynomial(ncoef=10,npoints=100) concrete/matmul(n=32)]",
		"serve churn=true client 0 [0:4]":  "[bounds/conv1d(k=7,n=900) bounds/conv1d(k=3,n=100) bounds/conv1d(k=3,n=1300) concrete/matmul(n=26)]",
		"fabric quarters[0:4]":             "[-1 -1.25 0 1.25]",
	}
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: drew %s, pinned %s", k, v, want[k])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d draws pinned, %d made", len(want), len(got))
	}
}
