package space

import (
	"context"
	"testing"

	"perfpred/internal/cpu"
	"perfpred/internal/engine"
	"perfpred/internal/trace"
)

// BenchmarkSweep simulates the full gcc space at its recommended trace
// length, the simulation a sampled DSE starts from. Each iteration sweeps
// on a fresh evaluator, so every L1, TLB, cache-stack and predictor pass
// runs again; the trace is generated once.
func BenchmarkSweep(b *testing.B) {
	tr, err := trace.GenerateBenchmark("gcc", 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := Enumerate()
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=default", 0}, {"workers=1", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eval, err := cpu.NewEvaluator(tr)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := Sweep(context.Background(), eval, cfgs, engine.Options{Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
