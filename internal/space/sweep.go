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
// whatever order they come. It runs in two phases of engine tasks on up
// to opts.Workers goroutines (0 means GOMAXPROCS). The first runs each
// distinct full-trace pass (L1I, L1D, ITLB, DTLB and branch predictor)
// as its own task, labelled "sweep trace[p:p+1)". The second groups the
// configurations by L2 pass (cpu.L2Key), in order of first appearance,
// and runs one "sweep[g:g+1)" task per group: the task walks its L2 once
// on its worker's reused arrays, replays the L2's misses through each L3
// option of the group and simulates the group's configurations. No
// worker then waits on another's pass. An opts.Hook observes both phases'
// task events alongside any model-training events sharing the hook. The
// result is deterministic regardless of worker count: the evaluator
// memoizes substrate passes and the pipeline combine step is pure.
// Cancelling ctx aborts the sweep between configurations.
func Sweep(ctx context.Context, eval *cpu.Evaluator, cfgs []MicroConfig, opts engine.Options) ([]float64, error) {
	if eval == nil {
		return nil, errors.New("space: nil evaluator")
	}
	if len(cfgs) == 0 {
		return nil, errors.New("space: no configurations to sweep")
	}
	sims := make([]cpu.Config, len(cfgs))
	for i := range cfgs {
		sims[i] = cfgs[i].CPUConfig()
	}
	passes := eval.TracePasses(sims)
	err := engine.Map(ctx, opts, len(passes), 1, "sweep trace",
		func(_ context.Context, p, _ int) error { return passes[p]() })
	if err != nil {
		return nil, err
	}

	// order lists the configuration indices group by group; group g is
	// order[start[g]:start[g+1]].
	groupOf := map[mem.HierarchyConfig]int{}
	group := make([]int, len(cfgs))
	start := []int{0}
	for i := range sims {
		key := cpu.L2Key(sims[i].Mem)
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
	err = engine.Map(ctx, opts, len(groupOf), 1, "sweep",
		func(ctx context.Context, g, _ int) error {
			s := engine.WorkerLocal(ctx, scratchKey{}, func() any { return new(cpu.Scratch) }).(*cpu.Scratch)
			for _, i := range order[start[g]:start[g+1]] {
				if err := ctx.Err(); err != nil {
					return err
				}
				res, err := eval.SimulateOn(sims[i], s)
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

// scratchKey keys each sweep worker's cpu.Scratch in its engine-local
// store.
type scratchKey struct{}

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
