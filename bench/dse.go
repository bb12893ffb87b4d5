package main

import (
	"context"
	"math"
	"sort"
	"time"

	"perfpred"
	"perfpred/internal/cpu"
	"perfpred/internal/engine"
	"perfpred/internal/obs"
	"perfpred/internal/space"
	"perfpred/internal/trace"
)

// dseConfig sizes the dse workload.
type dseConfig struct {
	stride   int     // simulate every stride-th design point; 0 the whole space
	fraction float64 // sampled share of the simulated space
	pinKind  perfpred.ModelKind
	pinMAPE  float64 // every run must select pinKind with exactly this true error
}

// fullDSE is the paper's Fig. 1a job on gcc: the whole Table 1 space at
// the recommended trace length, a 3% sample, four model families, seed 1.
var fullDSE = dseConfig{fraction: 0.03, pinKind: perfpred.NNE, pinMAPE: 3.6176676850128828}

// minDSEReps is how many DSE runs a measured phase makes at least, so
// that it has a median however slow the machine is.
const minDSEReps = 3

var dseKinds = []perfpred.ModelKind{perfpred.LRB, perfpred.NNE, perfpred.NNS, perfpred.TreeB}

// dseSeed is fixed rather than taken from -seed: the selection and its
// true error are pinned for it, so every run checks the whole job's
// output exactly.
const dseSeed = 1

// dseLayerMetrics are the per-layer metrics of the DSE job; the serving
// workloads never run it and report them as 0.
var dseLayerMetrics = []string{
	"trace.generate_s", "cpu.evaluator_s", "space.sweep_s", "space.configs_per_s",
	"core.sampled_dse_s", "engine.estimate_task_s", "engine.train_task_s",
	"engine.predict_task_s", "engine.queue_wait_ms.p50",
	"model.task_s.LR-B", "model.task_s.NN-E", "model.task_s.NN-S", "model.task_s.TREE-B",
}

// servingLayerMetrics are the per-layer metrics of the serving path; the
// dse workload never runs it and reports them as 0.
var servingLayerMetrics = []string{
	"client.net_us.p50", "gateway.handler_us.p50", "gateway.upstream_us.p50",
	"gateway.self_us.p50", "gateway.attempts_per_req", "gateway.affinity",
	"serve.handler_us.p50", "serve.handler_us.p90", "serve.queue_wait_us.p50",
	"serve.kernel_us.p50", "serve.batch_rows.mean", "serve.batches_per_req", "serve.shed",
	"registry.reload_ms.p50", "obs.scrape_ms", "predcache.hit_ratio",
	"predcache.coalesced_ratio", "predcache.evictions_per_lookup",
	"serve.decode_us", "serve.resolve_us", "core.predict_us_per_row", "serve.encode_us",
}

// dseReps is what one measured phase of DSE runs measured.
type dseReps struct {
	seconds []float64 // wall time per run
	// Process CPU microseconds, allocations and allocated KiB per design
	// point explored (every run explores the whole simulated space).
	cpuUS, allocs, allocKiB float64
	attempted, failed       int64
	exec                    []obs.ExecutionStats // traced runs only
}

// runDSE runs the dse workload. The set-up simulates the design space;
// the measured phase repeats RunSampledDSE on it. Traced, the simulation
// calls SimulateDesignSpace's four steps one by one to time each, and
// the phase runs once untraced and once with an engine recorder.
func runDSE(ctx context.Context, rc runConfig, traced bool) (outcome, error) {
	if !traced {
		start := time.Now()
		ds, err := perfpred.SimulateDesignSpace(ctx, "gcc", perfpred.SimOptions{Stride: rc.dse.stride})
		if err != nil {
			return outcome{}, err
		}
		setup := time.Since(start).Seconds()
		reps, err := runDSEReps(ctx, ds, rc, false)
		if err != nil {
			return outcome{}, err
		}
		values := map[string]float64{
			"setup_s":          setup,
			"allocs_per_row":   reps.allocs,
			"alloc_kb_per_row": reps.allocKiB,
			"heap_mb":          heapMiB(),
		}
		logf("dse: simulate %.3fs; %d runs %v ms; cpu %.1f us/row", setup, len(reps.seconds), sortedMS(reps.seconds), reps.cpuUS)
		return outcome{attempted: reps.attempted, failed: reps.failed, values: values}, nil
	}

	values := map[string]float64{}
	ds, err := simulateSteps(ctx, rc.dse.stride, values)
	if err != nil {
		return outcome{}, err
	}
	ref, err := runDSEReps(ctx, ds, rc, false)
	if err != nil {
		return outcome{}, err
	}
	reps, err := runDSEReps(ctx, ds, rc, true)
	if err != nil {
		return outcome{}, err
	}
	logf("dse: untraced runs %v ms, traced runs %v ms", sortedMS(ref.seconds), sortedMS(reps.seconds))
	med := func(f func(e obs.ExecutionStats) float64) float64 {
		xs := make([]float64, len(reps.exec))
		for i, e := range reps.exec {
			xs[i] = f(e)
		}
		return median(xs)
	}
	refMS := sortedMS(ref.seconds)
	values["client.latency_ms.p50"] = quantile(refMS, 0.5)
	values["client.latency_ms.p90"] = quantile(refMS, 0.9)
	values["process.cpu_us_per_row"] = ref.cpuUS
	values["core.sampled_dse_s"] = median(reps.seconds)
	values["trace.overhead"] = ratio(median(reps.seconds), median(ref.seconds))
	for _, phase := range []string{"estimate", "train", "predict"} {
		values["engine."+phase+"_task_s"] = med(func(e obs.ExecutionStats) float64 { return e.Phases[phase].Seconds })
	}
	values["engine.queue_wait_ms.p50"] = med(func(e obs.ExecutionStats) float64 { return e.QueueWait.P50 * 1e3 })
	for _, k := range dseKinds {
		values["model.task_s."+k.String()] = med(func(e obs.ExecutionStats) float64 { return e.Models[k.String()].Seconds })
	}
	for _, m := range servingLayerMetrics {
		values[m] = 0 // the serving path is not part of the DSE job
	}
	return outcome{
		attempted: ref.attempted + reps.attempted,
		failed:    ref.failed + reps.failed,
		values:    values,
	}, nil
}

// simulateSteps does what SimulateDesignSpace does, one public function
// at a time and in its order, recording each step's wall time.
func simulateSteps(ctx context.Context, stride int, values map[string]float64) (*perfpred.Dataset, error) {
	prof, err := trace.ProfileByName("gcc")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tr, err := trace.Generate(prof, prof.SimLen, 1)
	if err != nil {
		return nil, err
	}
	generated := time.Now()
	eval, err := cpu.NewEvaluator(tr)
	if err != nil {
		return nil, err
	}
	built := time.Now()
	cfgs := space.Enumerate()
	if stride > 1 {
		var sub []space.MicroConfig
		for i := 0; i < len(cfgs); i += stride {
			sub = append(sub, cfgs[i])
		}
		cfgs = sub
	}
	cycles, err := space.Sweep(ctx, eval, cfgs, engine.Options{})
	if err != nil {
		return nil, err
	}
	swept := time.Now()
	values["trace.generate_s"] = generated.Sub(start).Seconds()
	values["cpu.evaluator_s"] = built.Sub(generated).Seconds()
	values["space.sweep_s"] = swept.Sub(built).Seconds()
	values["space.configs_per_s"] = float64(len(cfgs)) / swept.Sub(built).Seconds()
	return space.BuildDataset(cfgs, cycles)
}

// runDSEReps repeats the sampled DSE on ds until the phase has lasted
// rc.phase and made at least minDSEReps runs, checking every result
// against the pin.
func runDSEReps(ctx context.Context, ds *perfpred.Dataset, rc runConfig, traced bool) (*dseReps, error) {
	u0, err := readUsage()
	if err != nil {
		return nil, err
	}
	reps := &dseReps{}
	start := time.Now()
	for time.Since(start) < rc.phase || len(reps.seconds) < minDSEReps {
		cfg := perfpred.TrainConfig{Seed: dseSeed, EpochScale: 1}
		var rec *perfpred.Recorder
		if traced {
			rec = perfpred.NewRecorder()
			cfg.Hook = rec.Hook()
		}
		runStart := time.Now()
		res, err := perfpred.RunSampledDSE(ctx, ds, rc.dse.fraction, dseKinds, cfg)
		if err != nil {
			return nil, err
		}
		reps.seconds = append(reps.seconds, time.Since(runStart).Seconds())
		reps.attempted++
		if res.Selected != rc.dse.pinKind || math.Float64bits(res.SelectedTrueMAPE) != math.Float64bits(rc.dse.pinMAPE) {
			reps.failed++
			logf("dse run %d selected %v at %.17g%%, pinned %v at %.17g%%",
				len(reps.seconds), res.Selected, res.SelectedTrueMAPE, rc.dse.pinKind, rc.dse.pinMAPE)
		}
		if traced {
			reps.exec = append(reps.exec, rec.Execution())
		}
	}
	u1, err := readUsage()
	if err != nil {
		return nil, err
	}
	reps.cpuUS, reps.allocs, reps.allocKiB = perRow(u0, u1, len(reps.seconds)*ds.Len())
	return reps, nil
}

// sortedMS returns seconds converted to milliseconds, ascending.
func sortedMS(seconds []float64) []float64 {
	ms := make([]float64, len(seconds))
	for i, s := range seconds {
		ms[i] = s * 1e3
	}
	sort.Float64s(ms)
	return ms
}
