package space

import (
	"context"
	"errors"

	"perfpred/internal/cpu"
	"perfpred/internal/engine"
	"perfpred/internal/trace"
)

// sweepBatch is how many configurations one sweep task simulates; small
// enough to load-balance across heterogeneous configurations, large enough
// to amortize scheduling.
const sweepBatch = 16

// Sweep simulates every configuration against the evaluator's trace as a
// chunked parallel map on the engine pool, using up to opts.Workers
// goroutines (0 means GOMAXPROCS), and returns the cycle count per
// configuration, index-aligned with cfgs. An opts.Hook observes the sweep's
// task events ("sweep[lo:hi)" labels) alongside any model-training events
// sharing the hook. The result is deterministic regardless of worker
// count: the evaluator memoizes substrate passes and the pipeline combine
// step is pure. Cancelling ctx aborts the sweep between configurations.
func Sweep(ctx context.Context, eval *cpu.Evaluator, cfgs []MicroConfig, opts engine.Options) ([]float64, error) {
	if eval == nil {
		return nil, errors.New("space: nil evaluator")
	}
	if len(cfgs) == 0 {
		return nil, errors.New("space: no configurations to sweep")
	}
	cycles := make([]float64, len(cfgs))
	err := engine.Map(ctx, opts, len(cfgs), sweepBatch, "sweep",
		func(ctx context.Context, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				res, err := eval.Simulate(cfgs[i].CPUConfig())
				if err != nil {
					return err
				}
				cycles[i] = res.Cycles
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return cycles, nil
}

// SweepBenchmark generates the named benchmark's trace (traceLen 0 means
// its recommended length) and sweeps it over every stride-th
// configuration of Enumerate (stride ≤ 1 means all of them). It returns
// the trace, the swept configurations and their cycles, index-aligned.
func SweepBenchmark(ctx context.Context, bench string, traceLen int, seed int64, stride int, opts engine.Options) (*trace.Trace, []MicroConfig, []float64, error) {
	tr, err := trace.GenerateBenchmark(bench, traceLen, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	eval, err := cpu.NewEvaluator(tr)
	if err != nil {
		return nil, nil, nil, err
	}
	cfgs := Enumerate()
	if stride > 1 {
		var sub []MicroConfig
		for i := 0; i < len(cfgs); i += stride {
			sub = append(sub, cfgs[i])
		}
		cfgs = sub
	}
	cycles, err := Sweep(ctx, eval, cfgs, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return tr, cfgs, cycles, nil
}
