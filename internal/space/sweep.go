package space

import (
	"context"
	"errors"
	"slices"

	"perfpred/internal/cpu"
	"perfpred/internal/engine"
	"perfpred/internal/mem"
	"perfpred/internal/trace"
)

// Sweep simulates every configuration against the evaluator's trace and
// returns the cycle count per configuration, index-aligned with cfgs in
// whatever order they come. It groups the configurations by cache stack
// (cpu.StackKey), in order of first appearance, and runs one engine task
// per group on up to opts.Workers goroutines (0 means GOMAXPROCS): a
// stack pass dominates a simulation, so each task computes its own and no
// worker waits on another's. An opts.Hook observes the sweep's task
// events ("sweep[g:g+1)" labels, g counting stacks) alongside any
// model-training events sharing the hook. The result is deterministic
// regardless of worker count: the evaluator memoizes substrate passes and
// the pipeline combine step is pure. Cancelling ctx aborts the sweep
// between configurations.
func Sweep(ctx context.Context, eval *cpu.Evaluator, cfgs []MicroConfig, opts engine.Options) ([]float64, error) {
	if eval == nil {
		return nil, errors.New("space: nil evaluator")
	}
	if len(cfgs) == 0 {
		return nil, errors.New("space: no configurations to sweep")
	}
	// order lists the configuration indices group by group; group g is
	// order[start[g]:start[g+1]].
	groupOf := map[mem.HierarchyConfig]int{}
	group := make([]int, len(cfgs))
	start := []int{0}
	for i := range cfgs {
		key := cpu.StackKey(cfgs[i].CPUConfig().Mem)
		g, ok := groupOf[key]
		if !ok {
			g = len(groupOf)
			groupOf[key] = g
			start = append(start, 0)
		}
		group[i] = g
		start[g+1]++
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	order := make([]int, len(cfgs))
	next := slices.Clone(start)
	for i, g := range group {
		order[next[g]] = i
		next[g]++
	}

	cycles := make([]float64, len(cfgs))
	err := engine.Map(ctx, opts, len(groupOf), 1, "sweep",
		func(ctx context.Context, g, _ int) error {
			for _, i := range order[start[g]:start[g+1]] {
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
