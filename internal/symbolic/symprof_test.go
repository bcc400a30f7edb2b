package symbolic

import (
	"testing"

	"warp/internal/driver"
	"warp/internal/workloads"
)

// BenchmarkInstantiateM32 times the hot path the whole subsystem exists
// for: serving one bound vector from an already-fitted template.  The
// class is warmed before the timer so the loop measures pure
// instantiation — evaluate closed forms, clone microcode through the
// arena, emit streams — with zero compiles.  Compare against
// BenchmarkCompileWorkers in internal/driver to see the gap the
// benchgate SymbolicSpeedupFloor pins.
func BenchmarkInstantiateM32(b *testing.B) {
	tmpl, err := CompileTemplate(workloads.MatmulSym(), driver.Options{Verify: true})
	if err != nil {
		b.Fatal(err)
	}
	bounds := map[string]int64{"n": 32}
	if _, _, err := tmpl.Instantiate(bounds); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tmpl.Instantiate(bounds); err != nil {
			b.Fatal(err)
		}
	}
}
