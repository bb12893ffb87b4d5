// Package trace generates synthetic instruction traces that stand in for
// the SPEC CPU2000 binaries the paper runs on SimpleScalar. Each benchmark
// is described by a statistical Profile — instruction mix, working-set
// structure, spatial locality, branch-site behaviour, dependence distances
// and memory-level-parallelism limits — and Generate expands a profile into
// a deterministic instruction stream.
//
// The predictive models in this repository never see microarchitectural
// internals, only (configuration → cycles) pairs, so what matters is that
// the traces make the simulated design space respond the way the paper's
// §4.1 statistics say the real benchmarks do: applu is compute-bound and
// almost configuration-insensitive (range 1.62), mcf is a pointer-chasing
// memory hog (range 6.38), gcc stresses the instruction cache and branch
// predictors (range 5.27), and so on. The profile parameters are calibrated
// against those published range/variance values (see the cpu package's
// calibration tests).
package trace

import (
	"errors"
	"fmt"
	"math"

	"perfpred/internal/stat"
)

// Class is an instruction category matching the SimpleScalar functional
// unit classes of Table 1 (ialu, imult, memport, fpalu, fpmult).
type Class int

const (
	// IntALU is a simple integer operation.
	IntALU Class = iota
	// IntMult is an integer multiply/divide.
	IntMult
	// FPALU is a floating-point add/compare.
	FPALU
	// FPMult is a floating-point multiply/divide.
	FPMult
	// Load reads memory.
	Load
	// Store writes memory.
	Store
	// Branch is a conditional branch.
	Branch
	numClasses = int(Branch) + 1
)

// String returns the class mnemonic.
func (c Class) String() string {
	switch c {
	case IntALU:
		return "ialu"
	case IntMult:
		return "imult"
	case FPALU:
		return "fpalu"
	case FPMult:
		return "fpmult"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Instr is one dynamic instruction.
type Instr struct {
	Class Class
	// PC is the instruction address (4-byte instructions).
	PC uint64
	// Addr is the effective address of a Load/Store.
	Addr uint64
	// Taken is the outcome of a Branch.
	Taken bool
	// Dep is the distance (in dynamic instructions) back to the most
	// recent producer this instruction waits on; 0 means no tracked
	// dependence.
	Dep int32
	// BB identifies the static basic block, for SimPoint-style
	// basic-block-vector analysis.
	BB int32
}

// Trace is a generated instruction stream.
type Trace struct {
	Name    string
	Instrs  []Instr
	profile *Profile
}

// Profile returns the workload profile the trace was generated from.
func (t *Trace) Profile() *Profile { return t.profile }

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Instrs) }

// Mix returns the empirical class fractions of the trace.
func (t *Trace) Mix() map[Class]float64 {
	counts := make([]int, numClasses)
	for i := range t.Instrs {
		counts[t.Instrs[i].Class]++
	}
	out := make(map[Class]float64, numClasses)
	for c, n := range counts {
		if n > 0 {
			out[Class(c)] = float64(n) / float64(len(t.Instrs))
		}
	}
	return out
}

// MeanDepDistance returns the average non-zero dependence distance, a
// proxy for the available instruction-level parallelism.
func (t *Trace) MeanDepDistance() float64 {
	s, n := 0.0, 0
	for i := range t.Instrs {
		if d := t.Instrs[i].Dep; d > 0 {
			s += float64(d)
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return s / float64(n)
}

// Loop describes one reuse loop of the data-reference model: a cyclic
// visit sequence over Blocks distinct 64-byte blocks placed SpacingB bytes
// apart in the loop's own region. Because the visit order is a fixed
// cycle, every block has an LRU reuse distance equal to the loop's
// footprint: a cache level keeps the loop resident if and only if its
// capacity covers that footprint. That makes each loop a precise
// sensitivity knob for one hierarchy level, independent of trace length.
type Loop struct {
	// Blocks is the number of distinct 64-byte blocks in the working set.
	Blocks int
	// SpacingB is the byte distance between consecutive blocks (≥ 64).
	// Larger spacing spreads the footprint across more lines of the outer
	// caches (whose lines are bigger) and more TLB pages.
	SpacingB int
	// SubAccesses is how many consecutive 8-byte references each block
	// visit performs (spatial locality; 8 sweeps the whole block, 1 is a
	// single pointer dereference).
	SubAccesses int
	// Frac is the fraction of data references that target this loop.
	Frac float64
	// Chase, when true, visits blocks in a fixed pseudo-random cyclic
	// permutation (pointer chasing — defeats spatial prefetching across
	// blocks); otherwise blocks are visited in address order (streaming).
	Chase bool
}

// Profile statistically describes one benchmark.
type Profile struct {
	// Name is the SPEC benchmark name (e.g. "mcf").
	Name string
	// FP marks floating-point benchmarks.
	FP bool
	// Mix gives the target instruction-class fractions; they must sum to 1.
	Mix map[Class]float64

	// Loops lists the reuse loops of the data-reference stream. The
	// fraction left over (1 - Σ Frac) streams through distant memory that
	// is never reused.
	Loops []Loop
	// DistantStrideB is the stride of the streaming never-reused
	// component.
	DistantStrideB int

	// CodeKB is the static code footprint (instruction-cache pressure).
	CodeKB int
	// BranchSites is the number of static conditional branch sites.
	BranchSites int
	// BiasAlpha shapes the per-site taken-probability distribution
	// Beta(α, α): small α pushes biases toward 0/1 (predictable), α≈1 is
	// uniform (hard).
	BiasAlpha float64
	// BiasPersistence is the probability a bias-driven branch repeats its
	// previous outcome (run-correlated data-dependent branches). Zero
	// selects the default of 0.65; higher values make branches easier for
	// every predictor.
	BiasPersistence float64
	// PatternFrac is the fraction of branch sites that follow short
	// periodic patterns (history predictors capture these; bimodal can't).
	PatternFrac float64

	// DepMean is the mean dependence distance (instruction-level
	// parallelism; larger = more parallel).
	DepMean float64
	// MLPCap bounds the memory-level parallelism the workload can expose
	// (1 ≈ serial pointer chasing).
	MLPCap float64

	// Phases is the number of distinct execution phases the trace cycles
	// through (SimPoint-style phase behaviour).
	Phases int

	// SimLen is the recommended dynamic instruction count for design-space
	// studies: long enough that every reuse loop completes multiple passes
	// (the paper simulates 100 M-instruction SimPoint intervals; these
	// traces are statistically stationary so far shorter runs converge).
	SimLen int
}

// Validate checks profile consistency.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return errors.New("trace: profile needs a name")
	}
	sum := 0.0
	for c, f := range p.Mix {
		if f < 0 {
			return fmt.Errorf("trace: %s: negative mix fraction for %v", p.Name, c)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("trace: %s: mix fractions sum to %v, want 1", p.Name, sum)
	}
	if len(p.Loops) == 0 {
		return fmt.Errorf("trace: %s: need at least one reuse loop", p.Name)
	}
	fracSum := 0.0
	for i, l := range p.Loops {
		if l.Blocks <= 0 {
			return fmt.Errorf("trace: %s: loop %d block count must be positive", p.Name, i)
		}
		if l.SpacingB < 64 {
			return fmt.Errorf("trace: %s: loop %d spacing %dB below the 64B block size", p.Name, i, l.SpacingB)
		}
		if l.SubAccesses < 1 || l.SubAccesses*8 > 64 {
			return fmt.Errorf("trace: %s: loop %d sub-access count %d outside [1,8]", p.Name, i, l.SubAccesses)
		}
		if l.Frac <= 0 {
			return fmt.Errorf("trace: %s: loop %d fraction must be positive", p.Name, i)
		}
		if uint64(l.Blocks)*uint64(l.SpacingB) > loopSpacing {
			return fmt.Errorf("trace: %s: loop %d spans %d bytes, beyond its address region", p.Name, i, l.Blocks*l.SpacingB)
		}
		fracSum += l.Frac
	}
	if fracSum > 1+1e-9 {
		return fmt.Errorf("trace: %s: loop fractions sum to %v > 1", p.Name, fracSum)
	}
	if p.DistantStrideB <= 0 {
		return fmt.Errorf("trace: %s: distant stride must be positive", p.Name)
	}
	if p.CodeKB <= 0 || p.BranchSites <= 0 {
		return fmt.Errorf("trace: %s: code footprint and branch sites must be positive", p.Name)
	}
	if p.BiasAlpha <= 0 {
		return fmt.Errorf("trace: %s: BiasAlpha must be positive", p.Name)
	}
	if p.PatternFrac < 0 || p.PatternFrac > 1 {
		return fmt.Errorf("trace: %s: PatternFrac out of [0,1]", p.Name)
	}
	if p.BiasPersistence < 0 || p.BiasPersistence >= 1 {
		return fmt.Errorf("trace: %s: BiasPersistence out of [0,1)", p.Name)
	}
	if p.DepMean < 1 {
		return fmt.Errorf("trace: %s: DepMean must be >= 1", p.Name)
	}
	if p.MLPCap < 1 {
		return fmt.Errorf("trace: %s: MLPCap must be >= 1", p.Name)
	}
	if p.Phases < 1 {
		return fmt.Errorf("trace: %s: need at least one phase", p.Name)
	}
	if p.SimLen < 1 {
		return fmt.Errorf("trace: %s: SimLen must be positive", p.Name)
	}
	return nil
}

// Address-space bases for the synthetic layout: code low, each reuse loop
// in its own gigabyte-aligned region, the streaming distant component high.
const (
	codeBase    = 0x0040_0000
	loopBase    = 0x1000_0000
	loopSpacing = 0x1000_0000
	distantBase = 0x20_0000_0000
)

// Generate expands a profile into n dynamic instructions, deterministically
// for a given seed.
func Generate(p *Profile, n int, seed int64) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, errors.New("trace: instruction count must be positive")
	}
	r := stat.NewRand(seed)

	// Static branch sites: bias or pattern per site. Bias-driven outcomes
	// are run-correlated (a Markov chain that keeps the previous outcome
	// with probability biasPersistence) the way real data-dependent
	// branches cluster, which also gives history predictors repeating
	// contexts to learn from.
	biasPersistence := p.BiasPersistence
	if biasPersistence == 0 {
		biasPersistence = 0.65
	}
	type site struct {
		bias    float64
		last    bool
		period  int // 0 = bias-driven
		pattern uint32
	}
	sites := make([]site, p.BranchSites)
	for i := range sites {
		s := site{bias: betaSample(r, p.BiasAlpha)}
		s.last = r.Float64() < s.bias
		if r.Float64() < p.PatternFrac {
			s.period = 2 + r.Intn(5)
			s.pattern = uint32(r.Int31())
		}
		sites[i] = s
	}

	// Static basic blocks: each ends in one branch site. Blocks are laid
	// out in clusters of adjacent blocks (fall-through paths share cache
	// lines, as in real code) and the clusters are spread across the code
	// footprint (taken branches and phase changes jump between pages —
	// instruction-cache and ITLB pressure).
	codeBytes := uint64(p.CodeKB) * 1024
	nBlocks := p.BranchSites
	blockStart := make([]uint64, nBlocks)
	blockLen := make([]int, nBlocks)
	branchFrac := p.Mix[Branch]
	meanBlock := 8
	if branchFrac > 0 {
		meanBlock = int(math.Round(1 / branchFrac))
	}
	const clusterBlocks = 8
	slotBytes := uint64(2*meanBlock) * 4 // room for the largest block
	nClusters := (nBlocks + clusterBlocks - 1) / clusterBlocks
	clusterSpacing := codeBytes / uint64(nClusters)
	if min := slotBytes * clusterBlocks; clusterSpacing < min {
		clusterSpacing = min
	}
	// Each cluster gets a pseudo-random sub-spacing offset so regularly
	// spaced clusters do not all alias into the same cache sets.
	clusterBytes := slotBytes * clusterBlocks
	for b := range blockStart {
		cluster := uint64(b / clusterBlocks)
		within := uint64(b % clusterBlocks)
		jitterRoom := clusterSpacing - clusterBytes
		var jitter uint64
		if jitterRoom >= 16 {
			jstate := cluster ^ 0x9e3779b97f4a7c15
			jstate *= 0xbf58476d1ce4e5b9
			jitter = (jstate % (jitterRoom / 16)) * 16
		}
		blockStart[b] = codeBase + cluster*clusterSpacing + jitter + within*slotBytes
		blockLen[b] = 2 + r.Intn(2*meanBlock-2)
	}

	// Per-loop visit state: block order (identity or a fixed random cycle
	// for pointer-chase loops), position in the cycle, and sub-access
	// progress within the current block.
	type loopState struct {
		order []int32 // visit order over block indices
		pos   int     // index into order
		sub   int     // sub-accesses already done at the current block
	}
	loops := make([]loopState, len(p.Loops))
	for i, l := range p.Loops {
		order := make([]int32, l.Blocks)
		for b := range order {
			order[b] = int32(b)
		}
		if l.Chase {
			r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		loops[i] = loopState{order: order}
	}
	loopCDF := make([]float64, len(p.Loops))
	{
		acc := 0.0
		for i, l := range p.Loops {
			acc += l.Frac
			loopCDF[i] = acc
		}
	}
	var distantCur uint64

	// Class sampling CDF (branches are emitted by block structure, so the
	// CDF covers the non-branch classes re-normalized).
	nonBranch := []Class{IntALU, IntMult, FPALU, FPMult, Load, Store}
	cdf := make([]float64, len(nonBranch))
	total := 0.0
	for i, c := range nonBranch {
		total += p.Mix[c]
		cdf[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("trace: %s: mix has no non-branch instructions", p.Name)
	}

	instrs := make([]Instr, 0, n)
	phaseLen := n / p.Phases
	if phaseLen < 1 {
		phaseLen = 1
	}
	block := 0
	pcInBlock := 0
	branchCount := make([]uint64, p.BranchSites)
	for len(instrs) < n {
		phase := (len(instrs) / phaseLen) % p.Phases
		// Each phase concentrates on a contiguous slice of blocks/sites and
		// shifts its hot region, producing clusterable BBV structure.
		phaseBlockLo := (nBlocks * phase) / p.Phases
		phaseBlockHi := (nBlocks * (phase + 1)) / p.Phases
		if block < phaseBlockLo || block >= phaseBlockHi {
			block = phaseBlockLo + r.Intn(maxInt(1, phaseBlockHi-phaseBlockLo))
			pcInBlock = 0
		}
		pc := blockStart[block] + uint64(pcInBlock)*4
		var ins Instr
		if pcInBlock == blockLen[block]-1 {
			// Block-terminating branch.
			s := &sites[block]
			var taken bool
			if s.period > 0 {
				k := branchCount[block] % uint64(s.period)
				taken = (s.pattern>>k)&1 == 1
			} else if r.Float64() < biasPersistence {
				taken = s.last
			} else {
				taken = r.Float64() < s.bias
			}
			s.last = taken
			branchCount[block]++
			ins = Instr{Class: Branch, PC: pc, Taken: taken, BB: int32(block)}
			// Next block: taken branches jump within the phase's blocks,
			// fall-through goes to the "next" block of the phase.
			if taken {
				block = phaseBlockLo + r.Intn(maxInt(1, phaseBlockHi-phaseBlockLo))
			} else {
				block++
				if block >= phaseBlockHi {
					block = phaseBlockLo
				}
			}
			pcInBlock = 0
		} else {
			u := r.Float64() * total
			cls := nonBranch[len(nonBranch)-1]
			for i, c := range cdf {
				if u <= c {
					cls = nonBranch[i]
					break
				}
			}
			ins = Instr{Class: cls, PC: pc, BB: int32(block)}
			if cls == Load || cls == Store {
				u := r.Float64()
				li := -1
				for i, c := range loopCDF {
					if u <= c {
						li = i
						break
					}
				}
				if li >= 0 {
					l := p.Loops[li]
					st := &loops[li]
					block := uint64(st.order[st.pos])
					ins.Addr = loopBase + uint64(li)*loopSpacing +
						block*uint64(l.SpacingB) + uint64(st.sub)*8
					st.sub++
					if st.sub >= l.SubAccesses {
						st.sub = 0
						st.pos++
						if st.pos >= len(st.order) {
							st.pos = 0
						}
					}
				} else {
					distantCur += uint64(p.DistantStrideB)
					ins.Addr = distantBase + distantCur
				}
			}
			// Geometric dependence distance with mean DepMean.
			if p.DepMean < math.Inf(1) {
				d := 1 + int32(geomSample(r, p.DepMean-0.0))
				if int(d) > len(instrs) {
					d = int32(len(instrs))
				}
				ins.Dep = d
			}
			pcInBlock++
		}
		instrs = append(instrs, ins)
	}
	return &Trace{Name: p.Name, Instrs: instrs, profile: p}, nil
}

// betaSample draws from Beta(α, α) via two gamma draws (Jöhnk for small α
// is overkill; the ratio-of-gammas construction is fine here).
func betaSample(r interface{ Float64() float64 }, alpha float64) float64 {
	a := gammaSample(r, alpha)
	b := gammaSample(r, alpha)
	if a+b == 0 {
		return 0.5
	}
	return a / (a + b)
}

// gammaSample draws from Gamma(shape, 1) using the Marsaglia–Tsang method
// with the standard boost for shape < 1.
func gammaSample(r interface{ Float64() float64 }, shape float64) float64 {
	if shape < 1 {
		u := r.Float64()
		if u == 0 {
			u = 1e-12
		}
		return gammaSample(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		// Normal draw via Box–Muller from two uniforms (keeps the
		// dependency surface to Float64 only).
		u1, u2 := r.Float64(), r.Float64()
		if u1 == 0 {
			u1 = 1e-12
		}
		x := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u == 0 {
			u = 1e-12
		}
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}

// geomSample draws a geometric-ish count with the given mean (>= 0).
func geomSample(r interface{ Float64() float64 }, mean float64) int {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	if u == 0 {
		u = 1e-12
	}
	p := 1 / (mean + 1)
	return int(math.Log(u) / math.Log(1-p))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
