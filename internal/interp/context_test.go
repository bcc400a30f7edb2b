package interp

import (
	"context"
	"errors"
	"testing"

	"warp/internal/w2"
	"warp/internal/workloads"
)

// analyzeSrc parses and analyzes a W2 source for oracle runs.
func analyzeSrc(t *testing.T, src string) *w2.Info {
	t.Helper()
	mod, err := w2.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := w2.Analyze(mod)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestRunContextCancelled proves the oracle aborts a large run once its
// context is cancelled, instead of computing to completion: the
// statement loop polls the context like the simulator's run loop.
func TestRunContextCancelled(t *testing.T) {
	info := analyzeSrc(t, workloads.Matmul(20))
	inputs := map[string][]float64{
		"a":    make([]float64, 400),
		"bmat": make([]float64, 400),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runContext(ctx, info, inputs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runContext on a cancelled context = %v, want context.Canceled", err)
	}
}

// TestRunContextNilAndBackground pins that a nil and a background
// context both behave like Run.
func TestRunContextNilAndBackground(t *testing.T) {
	info := analyzeSrc(t, workloads.Polynomial(4, 8))
	inputs := map[string][]float64{
		"z": {1, 2, 3, 4, 5, 6, 7, 8},
		"c": {1, -1, 0.5, 2},
	}
	want, err := Run(info, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []context.Context{nil, context.Background()} {
		got, err := runContext(ctx, info, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for name := range want {
			for i := range want[name] {
				if got[name][i] != want[name][i] {
					t.Fatalf("ctx=%v: %s[%d] = %v, want %v", ctx, name, i, got[name][i], want[name][i])
				}
			}
		}
	}
}
