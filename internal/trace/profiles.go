package trace

import "fmt"

// The twelve SPEC CPU2000 applications the paper selects following
// Phansalkar et al. (§4.1). The five whose figures the paper presents
// (applu, equake, gcc, mesa, mcf) carry carefully calibrated parameters;
// the rest are plausible companions built from the same machinery.
//
// Calibration targets from §4.1 (range = slowest/fastest cycles across the
// 4608-point space; variance of mean-normalized cycles):
//
//	applu  1.62 / 0.16    equake 1.73 / 0.19   gcc 5.27 / 0.33
//	mesa   2.22 / 0.19    mcf    6.38 / 0.71
//
// Loop placement against the Table 1 hierarchy (64 B blocks):
//
//	≤ 12 KB sweeps          fit every L1D option (16/32/64 KB)
//	~24–36 KB sweeps        fit 32/64 KB L1Ds but thrash 16 KB
//	~48–56 KB sweeps        fit only the 64 KB L1D
//	~2.5 k-block chases     (128 B spacing → 320 KB in L2 lines)
//	                        fit the 1 MB L2 but thrash 256 KB
//	~9 k-block chases       (128 B spacing → 1.1 MB in L2 lines, 2.25 MB
//	                        in L3 lines) fit only the 8 MB L3, and their
//	                        ~280 pages thrash the small DTLB
//	distant streaming       misses everywhere
//
// Per-loop traffic is budgeted so that (a) every reuse loop completes at
// least two passes within SimLen instructions and (b) the worst-case
// stall cycles it can add stay inside the benchmark's published range.
var profiles = []*Profile{
	{
		// applu: dense FP solver. Streaming loops over small working sets,
		// highly predictable loop branches, good ILP — the design space
		// barely matters (paper range 1.62).
		Name: "applu", FP: true,
		Mix: map[Class]float64{
			IntALU: 0.19, IntMult: 0.01, FPALU: 0.26, FPMult: 0.17,
			Load: 0.26, Store: 0.07, Branch: 0.04,
		},
		Loops: []Loop{
			{Blocks: 64, SpacingB: 64, SubAccesses: 8, Frac: 0.60},   // 4 KB stream
			{Blocks: 96, SpacingB: 64, SubAccesses: 8, Frac: 0.25},   // 6 KB stream
			{Blocks: 160, SpacingB: 64, SubAccesses: 8, Frac: 0.148}, // 10 KB stream
		},
		DistantStrideB: 64,
		CodeKB:         64, BranchSites: 48, BiasAlpha: 0.08, PatternFrac: 0.10,
		BiasPersistence: 0.85, DepMean: 3.8, MLPCap: 4.0, Phases: 3, SimLen: 600_000,
	},
	{
		// equake: FP earthquake simulation with sparse-matrix irregularity;
		// bigger inner working sets than applu (range 1.73).
		Name: "equake", FP: true,
		Mix: map[Class]float64{
			IntALU: 0.23, IntMult: 0.01, FPALU: 0.23, FPMult: 0.12,
			Load: 0.30, Store: 0.06, Branch: 0.05,
		},
		Loops: []Loop{
			{Blocks: 64, SpacingB: 64, SubAccesses: 8, Frac: 0.50},   // 4 KB stream
			{Blocks: 128, SpacingB: 64, SubAccesses: 8, Frac: 0.28},  // 8 KB stream
			{Blocks: 192, SpacingB: 64, SubAccesses: 8, Frac: 0.216}, // 12 KB stream
		},
		DistantStrideB: 64,
		CodeKB:         96, BranchSites: 64, BiasAlpha: 0.12, PatternFrac: 0.10,
		BiasPersistence: 0.85, DepMean: 3.6, MLPCap: 3.0, Phases: 3, SimLen: 600_000,
	},
	{
		// gcc: the compiler. Huge code footprint (instruction-cache
		// pressure), many hard data-dependent branches, pointer-heavy
		// moderate working set (range 5.27).
		Name: "gcc", FP: false,
		Mix: map[Class]float64{
			IntALU: 0.42, IntMult: 0.01, FPALU: 0, FPMult: 0,
			Load: 0.28, Store: 0.12, Branch: 0.17,
		},
		Loops: []Loop{
			{Blocks: 192, SpacingB: 64, SubAccesses: 8, Frac: 0.64},                 // 12 KB stream
			{Blocks: 448, SpacingB: 64, SubAccesses: 4, Frac: 0.295},                // 28 KB
			{Blocks: 2500, SpacingB: 128, SubAccesses: 1, Frac: 0.055, Chase: true}, // L2-band
		},
		DistantStrideB: 64,
		CodeKB:         1024, BranchSites: 2800, BiasAlpha: 1.0, PatternFrac: 0.05,
		BiasPersistence: 0.5, DepMean: 3.2, MLPCap: 2.0, Phases: 4, SimLen: 500_000,
	},
	{
		// mesa: software 3-D rendering; FP with moderate locality, a
		// mid-size code footprint and moderately hard branches (range 2.22).
		Name: "mesa", FP: true,
		Mix: map[Class]float64{
			IntALU: 0.27, IntMult: 0.02, FPALU: 0.16, FPMult: 0.10,
			Load: 0.27, Store: 0.10, Branch: 0.08,
		},
		Loops: []Loop{
			{Blocks: 128, SpacingB: 64, SubAccesses: 8, Frac: 0.52},  // 8 KB stream
			{Blocks: 192, SpacingB: 64, SubAccesses: 8, Frac: 0.26},  // 12 KB stream
			{Blocks: 256, SpacingB: 64, SubAccesses: 8, Frac: 0.214}, // 16 KB stream
		},
		DistantStrideB: 64,
		CodeKB:         384, BranchSites: 480, BiasAlpha: 0.18, PatternFrac: 0.10,
		BiasPersistence: 0.8, DepMean: 4.0, MLPCap: 3.0, Phases: 3, SimLen: 600_000,
	},
	{
		// mcf: single-depot vehicle scheduling; the classic pointer-chasing
		// memory-bound benchmark — working sets at every hierarchy level,
		// almost no MLP, very cache-sensitive (range 6.38, variance 0.71).
		Name: "mcf", FP: false,
		Mix: map[Class]float64{
			IntALU: 0.35, IntMult: 0.005, FPALU: 0, FPMult: 0,
			Load: 0.38, Store: 0.075, Branch: 0.19,
		},
		Loops: []Loop{
			{Blocks: 192, SpacingB: 64, SubAccesses: 8, Frac: 0.50},                 // 12 KB
			{Blocks: 384, SpacingB: 64, SubAccesses: 4, Frac: 0.403},                // 24 KB
			{Blocks: 2500, SpacingB: 128, SubAccesses: 1, Frac: 0.035, Chase: true}, // L2-band
			{Blocks: 9000, SpacingB: 128, SubAccesses: 1, Frac: 0.052, Chase: true}, // L3-band + DTLB
		},
		DistantStrideB: 64,
		CodeKB:         48, BranchSites: 96, BiasAlpha: 0.45, PatternFrac: 0.05,
		BiasPersistence: 0.6, DepMean: 2.2, MLPCap: 1.3, Phases: 2, SimLen: 1_500_000,
	},
	{
		// gzip: compression; small hot loops, biased branches.
		Name: "gzip", FP: false,
		Mix: map[Class]float64{
			IntALU: 0.46, IntMult: 0.01, FPALU: 0, FPMult: 0,
			Load: 0.26, Store: 0.11, Branch: 0.16,
		},
		Loops: []Loop{
			{Blocks: 256, SpacingB: 64, SubAccesses: 8, Frac: 0.66}, // 16 KB window
			{Blocks: 512, SpacingB: 64, SubAccesses: 8, Frac: 0.33}, // 32 KB window
		},
		DistantStrideB: 64,
		CodeKB:         64, BranchSites: 80, BiasAlpha: 0.40, PatternFrac: 0.15,
		DepMean: 3.5, MLPCap: 2.5, Phases: 2, SimLen: 400_000,
	},
	{
		// vpr: FPGA place & route; irregular graph walks.
		Name: "vpr", FP: false,
		Mix: map[Class]float64{
			IntALU: 0.38, IntMult: 0.01, FPALU: 0.06, FPMult: 0.03,
			Load: 0.30, Store: 0.08, Branch: 0.14,
		},
		Loops: []Loop{
			{Blocks: 192, SpacingB: 64, SubAccesses: 4, Frac: 0.56},
			{Blocks: 448, SpacingB: 64, SubAccesses: 2, Frac: 0.40},
			{Blocks: 2500, SpacingB: 128, SubAccesses: 1, Frac: 0.03, Chase: true},
		},
		DistantStrideB: 64,
		CodeKB:         256, BranchSites: 512, BiasAlpha: 0.60, PatternFrac: 0.12,
		DepMean: 3.0, MLPCap: 2.0, Phases: 3, SimLen: 500_000,
	},
	{
		// crafty: chess; branchy integer code, big code footprint.
		Name: "crafty", FP: false,
		Mix: map[Class]float64{
			IntALU: 0.48, IntMult: 0.01, FPALU: 0, FPMult: 0,
			Load: 0.26, Store: 0.08, Branch: 0.17,
		},
		Loops: []Loop{
			{Blocks: 256, SpacingB: 64, SubAccesses: 8, Frac: 0.64},
			{Blocks: 512, SpacingB: 64, SubAccesses: 4, Frac: 0.35},
		},
		DistantStrideB: 64,
		CodeKB:         512, BranchSites: 1200, BiasAlpha: 0.70, PatternFrac: 0.10,
		DepMean: 3.4, MLPCap: 2.2, Phases: 3, SimLen: 500_000,
	},
	{
		// art: neural-network image recognition; streaming FP over
		// mid-size matrices with an L2-band tail.
		Name: "art", FP: true,
		Mix: map[Class]float64{
			IntALU: 0.20, IntMult: 0.01, FPALU: 0.24, FPMult: 0.14,
			Load: 0.30, Store: 0.05, Branch: 0.06,
		},
		Loops: []Loop{
			{Blocks: 160, SpacingB: 64, SubAccesses: 8, Frac: 0.58},
			{Blocks: 512, SpacingB: 64, SubAccesses: 8, Frac: 0.38},
			{Blocks: 2500, SpacingB: 128, SubAccesses: 1, Frac: 0.03, Chase: true},
		},
		DistantStrideB: 32,
		CodeKB:         32, BranchSites: 40, BiasAlpha: 0.15, PatternFrac: 0.30,
		DepMean: 5.5, MLPCap: 3.5, Phases: 2, SimLen: 500_000,
	},
	{
		// swim: shallow-water FP stencil; very strided, streams hard.
		Name: "swim", FP: true,
		Mix: map[Class]float64{
			IntALU: 0.15, IntMult: 0.005, FPALU: 0.27, FPMult: 0.18,
			Load: 0.28, Store: 0.075, Branch: 0.04,
		},
		Loops: []Loop{
			{Blocks: 192, SpacingB: 64, SubAccesses: 8, Frac: 0.60},
			{Blocks: 512, SpacingB: 64, SubAccesses: 8, Frac: 0.39},
		},
		DistantStrideB: 32, // dense streaming through the grids
		CodeKB:         32, BranchSites: 32, BiasAlpha: 0.10, PatternFrac: 0.35,
		DepMean: 6.0, MLPCap: 4.0, Phases: 2, SimLen: 400_000,
	},
	{
		// lucas: FP number theory; compute-dominated with FFT-ish reuse.
		Name: "lucas", FP: true,
		Mix: map[Class]float64{
			IntALU: 0.18, IntMult: 0.02, FPALU: 0.27, FPMult: 0.20,
			Load: 0.24, Store: 0.05, Branch: 0.04,
		},
		Loops: []Loop{
			{Blocks: 192, SpacingB: 64, SubAccesses: 8, Frac: 0.62},
			{Blocks: 512, SpacingB: 64, SubAccesses: 8, Frac: 0.37},
		},
		DistantStrideB: 64,
		CodeKB:         48, BranchSites: 40, BiasAlpha: 0.12, PatternFrac: 0.30,
		DepMean: 5.8, MLPCap: 3.5, Phases: 2, SimLen: 300_000,
	},
	{
		// twolf: standard-cell place & route; irregular integer.
		Name: "twolf", FP: false,
		Mix: map[Class]float64{
			IntALU: 0.40, IntMult: 0.01, FPALU: 0.04, FPMult: 0.02,
			Load: 0.30, Store: 0.08, Branch: 0.15,
		},
		Loops: []Loop{
			{Blocks: 192, SpacingB: 64, SubAccesses: 4, Frac: 0.56},
			{Blocks: 448, SpacingB: 64, SubAccesses: 2, Frac: 0.40},
			{Blocks: 2500, SpacingB: 128, SubAccesses: 1, Frac: 0.03, Chase: true},
		},
		DistantStrideB: 64,
		CodeKB:         192, BranchSites: 448, BiasAlpha: 0.55, PatternFrac: 0.12,
		DepMean: 3.0, MLPCap: 2.0, Phases: 3, SimLen: 500_000,
	},
}

// Profiles returns all twelve benchmark profiles.
func Profiles() []*Profile {
	return append([]*Profile(nil), profiles...)
}

// FiguredProfiles returns the five benchmarks whose figures the paper
// presents (Figures 2–6): applu, equake, gcc, mesa, mcf.
func FiguredProfiles() []*Profile {
	names := []string{"applu", "equake", "gcc", "mesa", "mcf"}
	out := make([]*Profile, 0, len(names))
	for _, n := range names {
		p, err := ProfileByName(n)
		if err != nil {
			panic(err) // unreachable: the table above defines all five
		}
		out = append(out, p)
	}
	return out
}

// ProfileByName looks a profile up by benchmark name.
func ProfileByName(name string) (*Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("trace: unknown benchmark %q", name)
}

// GenerateBenchmark generates n instructions of the named benchmark's
// trace; n == 0 means the profile's recommended SimLen.
func GenerateBenchmark(name string, n int, seed int64) (*Trace, error) {
	p, err := ProfileByName(name)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		n = p.SimLen
	}
	return Generate(p, n, seed)
}
