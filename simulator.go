package perfpred

import (
	"context"

	"perfpred/internal/cpu"
	"perfpred/internal/engine"
	"perfpred/internal/space"
	"perfpred/internal/trace"
)

// MicroConfig is one point of the paper's Table 1 microprocessor design
// space, with all 24 parameters spelled out.
type MicroConfig = space.MicroConfig

// DesignSpaceSize is the number of configurations in the Table 1 space.
const DesignSpaceSize = space.SpaceSize

// MicroDesignSpace enumerates all 4608 configurations of Table 1.
func MicroDesignSpace() []MicroConfig { return space.Enumerate() }

// MicroSchema returns the 24-field dataset schema of a design-space record.
func MicroSchema() *Schema { return space.Schema() }

// Benchmarks lists the available SPEC CPU2000 workload models.
func Benchmarks() []string {
	ps := trace.Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// FiguredBenchmarks lists the five benchmarks of the paper's Figures 2–6.
func FiguredBenchmarks() []string {
	ps := trace.FiguredProfiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// SimOptions configures design-space simulation.
type SimOptions struct {
	// TraceLen overrides the benchmark's recommended instruction count
	// (zero keeps the recommendation).
	TraceLen int
	// Seed drives trace generation (default 1).
	Seed int64
	// Workers bounds simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// Stride simulates every Stride-th configuration instead of all 4608
	// (0 or 1 = full space). Use a stride coprime to the space dimensions
	// (e.g. 11) for a representative systematic sample.
	Stride int
	// Hook, if non-nil, observes the sweep's execution events — attach
	// the same hook here and on TrainConfig to get one unified stream
	// (and one RunReport) covering simulation and modeling.
	Hook Hook
}

func (o SimOptions) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// SimulateDesignSpace runs the named benchmark's synthetic trace through
// every configuration of the Table 1 design space (or a systematic
// subsample) on the cycle-approximate simulator and returns the resulting
// (configuration → cycles) dataset — the ground truth of the sampled-DSE
// experiments. Cancelling ctx aborts the sweep between configurations.
func SimulateDesignSpace(ctx context.Context, benchmark string, opts SimOptions) (*Dataset, error) {
	_, cfgs, cycles, err := space.SweepBenchmark(ctx, benchmark, opts.TraceLen, opts.seed(), opts.Stride,
		engine.Options{Workers: opts.Workers, Hook: opts.Hook})
	if err != nil {
		return nil, err
	}
	return space.BuildDataset(cfgs, cycles)
}

// SimResult reports one simulated configuration.
type SimResult = cpu.Result

// SimulateConfig runs the named benchmark through a single design-space
// configuration and returns the detailed result (cycle breakdown, miss
// counts).
func SimulateConfig(benchmark string, cfg MicroConfig, opts SimOptions) (*SimResult, error) {
	tr, err := trace.GenerateBenchmark(benchmark, opts.TraceLen, opts.seed())
	if err != nil {
		return nil, err
	}
	return cpu.Simulate(cfg.CPUConfig(), tr)
}
