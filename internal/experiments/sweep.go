package experiments

import (
	"context"
	"sync"

	"perfpred/internal/space"
	"perfpred/internal/trace"
)

// sweepKey names one simulated space: everything space.SweepBenchmark's
// result depends on.
type sweepKey struct {
	bench    string
	traceLen int
	seed     int64
	stride   int
}

// sweptSpace is one SweepBenchmark result.
type sweptSpace struct {
	tr     *trace.Trace
	cfgs   []space.MicroConfig
	cycles []float64
}

// sweepMemo holds the spaces one run has simulated.
type sweepMemo struct {
	mu    sync.Mutex
	swept map[sweepKey]sweptSpace
}

type sweepMemoKey struct{}

// WithSweepMemo returns a context under which the experiments simulate
// each (benchmark, trace length, seed, stride) space once, however many
// of them read it: the calibration, the Figures 2–6 studies, the
// ablations, the active study and the learning curve all sweep the same
// figured benchmarks. The memo lives as long as the returned context, so
// it belongs to one run; without it every experiment sweeps its own
// spaces. Results are unchanged either way: a sweep is deterministic, and
// the experiments only read what it returns.
func WithSweepMemo(ctx context.Context) context.Context {
	return context.WithValue(ctx, sweepMemoKey{}, &sweepMemo{swept: map[sweepKey]sweptSpace{}})
}

// sweep returns bench's simulated space under cfg: the run's earlier
// sweep of the same space if ctx carries a memo that holds one, else a
// fresh space.SweepBenchmark. The memo's lock is not held across the
// sweep, which calls cfg.Hook, so two concurrent first reads of one space
// may both simulate it; the experiments read their spaces one at a time.
// Callers must not modify the result.
func sweep(ctx context.Context, bench string, cfg Config) (*trace.Trace, []space.MicroConfig, []float64, error) {
	memo, _ := ctx.Value(sweepMemoKey{}).(*sweepMemo)
	key := sweepKey{bench, cfg.TraceLen, cfg.seed(), cfg.SpaceStride}
	if memo != nil {
		memo.mu.Lock()
		s, ok := memo.swept[key]
		memo.mu.Unlock()
		if ok {
			return s.tr, s.cfgs, s.cycles, nil
		}
	}
	tr, cfgs, cycles, err := space.SweepBenchmark(ctx, bench, cfg.TraceLen, cfg.seed(), cfg.SpaceStride, cfg.engineOpts())
	if err != nil || memo == nil {
		return tr, cfgs, cycles, err
	}
	memo.mu.Lock()
	memo.swept[key] = sweptSpace{tr, cfgs, cycles}
	memo.mu.Unlock()
	return tr, cfgs, cycles, nil
}
