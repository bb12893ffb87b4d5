package cpu

import (
	"math"
	"testing"

	"perfpred/internal/bpred"
	"perfpred/internal/mem"
	"perfpred/internal/trace"
)

// baseConfig returns a mid-range configuration.
func baseConfig() Config {
	cfg := Config{
		Mem: mem.HierarchyConfig{
			L1I:  mem.CacheConfig{SizeKB: 32, LineBytes: 64, Assoc: 4},
			L1D:  mem.CacheConfig{SizeKB: 32, LineBytes: 64, Assoc: 4},
			L2:   mem.CacheConfig{SizeKB: 1024, LineBytes: 128, Assoc: 8},
			ITLB: mem.TLBConfig{CoverageKB: 256},
			DTLB: mem.TLBConfig{CoverageKB: 512},
		},
		BPred: bpred.Combination,
		Width: 4,
		RUU:   128,
		LSQ:   64,
		FU:    FUConfig{IntALU: 4, IntMult: 2, MemPort: 2, FPALU: 4, FPMult: 2},
	}
	DefaultLatencies(&cfg)
	return cfg
}

func genTrace(t *testing.T, name string, n int) *trace.Trace {
	t.Helper()
	p, err := trace.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(p, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Mem.L2 = mem.CacheConfig{} },
		func(c *Config) { c.BPred = bpred.Bimodal; c.BPredEntries = 1000 },
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.RUU = 0 },
		func(c *Config) { c.LSQ = 256; c.RUU = 128 },
		func(c *Config) { c.FU.MemPort = 0 },
		func(c *Config) { c.FrontendDepth = 0 },
	}
	for i, mutate := range mutations {
		c := baseConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func TestFUConfigString(t *testing.T) {
	fu := FUConfig{IntALU: 4, IntMult: 2, MemPort: 2, FPALU: 4, FPMult: 2}
	if fu.String() != "4/2/2/4/2" {
		t.Fatalf("String() = %q", fu.String())
	}
}

func TestSimulateBasicSanity(t *testing.T) {
	tr := genTrace(t, "gcc", 30000)
	res, err := Simulate(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 30000 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
	if res.Cycles <= 0 {
		t.Fatalf("cycles = %v", res.Cycles)
	}
	if res.IPC <= 0 || res.IPC > float64(baseConfig().Width) {
		t.Fatalf("IPC = %v implausible", res.IPC)
	}
	sum := res.BaseCycles + res.BranchCycles + res.FetchCycles + res.MemCycles + res.TLBCycles
	if diff := res.Cycles - sum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("breakdown (%v) does not sum to cycles (%v)", sum, res.Cycles)
	}
	if res.Branches == 0 || res.BranchMisses > res.Branches {
		t.Fatalf("branch stats %d/%d", res.BranchMisses, res.Branches)
	}
}

func TestSimulateRejectsInvalid(t *testing.T) {
	tr := genTrace(t, "gcc", 1000)
	bad := baseConfig()
	bad.Width = 0
	if _, err := Simulate(bad, tr); err == nil {
		t.Fatal("invalid config: want error")
	}
	if _, err := Simulate(baseConfig(), &trace.Trace{}); err == nil {
		t.Fatal("empty trace: want error")
	}
}

func TestPerfectPredictorFaster(t *testing.T) {
	tr := genTrace(t, "gcc", 30000)
	e, err := NewEvaluator(tr)
	if err != nil {
		t.Fatal(err)
	}
	perf := baseConfig()
	perf.BPred = bpred.Perfect
	bim := baseConfig()
	bim.BPred = bpred.Bimodal
	rp, err := e.Simulate(perf)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := e.Simulate(bim)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Cycles >= rb.Cycles {
		t.Fatalf("perfect (%v) not faster than bimodal (%v) on branchy gcc", rp.Cycles, rb.Cycles)
	}
	if rp.BranchMisses != 0 {
		t.Fatalf("perfect predictor missed %d branches", rp.BranchMisses)
	}
}

func TestBiggerCachesFasterOnMcf(t *testing.T) {
	tr := genTrace(t, "mcf", 30000)
	e, _ := NewEvaluator(tr)
	small := baseConfig()
	small.Mem.L1D.SizeKB = 16
	small.Mem.L2.SizeKB = 256
	small.Mem.L2.Assoc = 4
	big := baseConfig()
	big.Mem.L1D.SizeKB = 64
	big.Mem.L3 = mem.CacheConfig{SizeKB: 8192, LineBytes: 256, Assoc: 8, LatencyCycles: 40}
	rs, err := e.Simulate(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := e.Simulate(big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Cycles >= rs.Cycles {
		t.Fatalf("bigger memory system (%v) not faster than small (%v) on mcf", rb.Cycles, rs.Cycles)
	}
}

func TestWiderCoreFasterOnApplu(t *testing.T) {
	tr := genTrace(t, "applu", 30000)
	e, _ := NewEvaluator(tr)
	narrow := baseConfig()
	wide := baseConfig()
	wide.Width = 8
	wide.RUU, wide.LSQ = 256, 128
	wide.FU = FUConfig{IntALU: 8, IntMult: 4, MemPort: 4, FPALU: 8, FPMult: 4}
	rn, err := e.Simulate(narrow)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := e.Simulate(wide)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Cycles >= rn.Cycles {
		t.Fatalf("8-wide (%v) not faster than 4-wide (%v) on high-ILP applu", rw.Cycles, rn.Cycles)
	}
}

func TestIssueWrongCostsCycles(t *testing.T) {
	tr := genTrace(t, "gcc", 20000)
	e, _ := NewEvaluator(tr)
	off := baseConfig()
	on := baseConfig()
	on.IssueWrong = true
	ro, err := e.Simulate(off)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := e.Simulate(on)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Cycles <= ro.Cycles {
		t.Fatalf("wrong-path issue should cost cycles: %v vs %v", rw.Cycles, ro.Cycles)
	}
}

func TestEvaluatorMemoizationConsistent(t *testing.T) {
	tr := genTrace(t, "mesa", 20000)
	e, _ := NewEvaluator(tr)
	cfg := baseConfig()
	r1, err := e.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Fatal("memoized resimulation differs")
	}
	// Fresh evaluator must agree too (substrate passes are deterministic).
	e2, _ := NewEvaluator(tr)
	r3, err := e2.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r3.Cycles {
		t.Fatal("fresh evaluator disagrees with memoized one")
	}
}

func TestEvaluatorConcurrentUse(t *testing.T) {
	tr := genTrace(t, "gcc", 10000)
	e, _ := NewEvaluator(tr)
	cfgs := make([]Config, 16)
	for i := range cfgs {
		c := baseConfig()
		if i%2 == 0 {
			c.Mem.L1D.SizeKB = 16
		}
		if i%4 < 2 {
			c.BPred = bpred.TwoLevel
		}
		if i%8 < 4 {
			c.Mem.L3 = mem.CacheConfig{SizeKB: 8192, LineBytes: 256, Assoc: 8}
			DefaultLatencies(&c)
		}
		cfgs[i] = c
	}
	results := make([]float64, len(cfgs))
	done := make(chan error, len(cfgs))
	for i := range cfgs {
		go func(i int) {
			r, err := e.Simulate(cfgs[i])
			if err == nil {
				results[i] = r.Cycles
			}
			done <- err
		}(i)
	}
	for range cfgs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Cross-check against sequential evaluation.
	e2, _ := NewEvaluator(tr)
	for i := range cfgs {
		r, err := e2.Simulate(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != results[i] {
			t.Fatalf("config %d: concurrent %v vs sequential %v", i, results[i], r.Cycles)
		}
	}
}

func TestMemBoundVsComputeBoundBreakdown(t *testing.T) {
	e1, _ := NewEvaluator(genTrace(t, "mcf", 30000))
	e2, _ := NewEvaluator(genTrace(t, "applu", 30000))
	rm, err := e1.Simulate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ra, err := e2.Simulate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	memFracMcf := rm.MemCycles / rm.Cycles
	memFracApplu := ra.MemCycles / ra.Cycles
	if memFracMcf <= memFracApplu {
		t.Fatalf("mcf memory fraction %.2f should exceed applu's %.2f", memFracMcf, memFracApplu)
	}
}

func TestEvaluatorDistinguishesPrefetcherConfigs(t *testing.T) {
	// Regression test for the memoization key: toggling the prefetcher
	// must not hit the same cached substrate pass.
	tr := genTrace(t, "applu", 60000)
	e, err := NewEvaluator(tr)
	if err != nil {
		t.Fatal(err)
	}
	off := baseConfig()
	on := baseConfig()
	on.Mem.NextLinePrefetch = true
	ro, err := e.Simulate(off)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := e.Simulate(on)
	if err != nil {
		t.Fatal(err)
	}
	if rn.Cycles >= ro.Cycles {
		t.Fatalf("prefetcher should speed up streaming applu: %v vs %v", rn.Cycles, ro.Cycles)
	}
	if rn.MemStats.Prefetches == 0 {
		t.Fatal("prefetch stats missing")
	}
}

// oracleMem is the direct walk the staged Evaluator must reproduce bit
// for bit: every fetch, load and store through one mem.Hierarchy.
func oracleMem(cfg mem.HierarchyConfig, tr *trace.Trace) (*memMetrics, error) {
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	m := &memMetrics{}
	l1iHit := cfg.L1I.LatencyCycles
	l1dHit := cfg.L1D.LatencyCycles
	for i := range tr.Instrs {
		ins := &tr.Instrs[i]
		tlb, cache, _ := h.AccessInstParts(ins.PC)
		m.tlbCycles += float64(tlb)
		m.instCacheExtra += float64(cache - l1iHit)
		switch ins.Class {
		case trace.Load:
			tlb, cache, toMem := h.AccessDataParts(ins.Addr)
			m.tlbCycles += float64(tlb)
			if toMem {
				m.loadMemExtra += float64(cache - l1dHit)
			} else {
				m.loadChipExtra += float64(cache - l1dHit)
			}
		case trace.Store:
			tlb, cache, toMem := h.AccessDataParts(ins.Addr)
			m.tlbCycles += float64(tlb)
			if toMem {
				m.storeMemExtra += float64(cache - l1dHit)
			} else {
				m.storeChipExtra += float64(cache - l1dHit)
			}
		}
	}
	m.stats = h.Stats()
	return m, nil
}

// oracleSimulate simulates cfg on e's trace with the direct memory walk;
// only the branch pass comes from e.
func oracleSimulate(e *Evaluator, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	mm, err := oracleMem(cfg.Mem, e.tr)
	if err != nil {
		return Result{}, err
	}
	bm, err := e.predPass(cfg.BPred, cfg.BPredEntries)
	if err != nil {
		return Result{}, err
	}
	return combine(cfg, &e.tm, e.tr.Profile(), mm, bm), nil
}

// simulateBoth runs cfg through the staged evaluator e and the oracle,
// failing the test unless the two results are identical.
func simulateBoth(t *testing.T, e *Evaluator, cfg Config) Result {
	t.Helper()
	got, err := e.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleSimulate(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles) {
		t.Fatalf("staged result differs from the direct walk:\n got %+v\nwant %+v", got, want)
	}
	return got
}

func TestEvaluatorKeysSeparateLatencies(t *testing.T) {
	// Regression test for the memo keys: two configs with the same
	// geometry but one different latency must not share a pass whose sums
	// depend on that latency.
	base := baseConfig()
	base.Mem.L3 = mem.CacheConfig{SizeKB: 8192, LineBytes: 256, Assoc: 8}
	DefaultLatencies(&base)
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"L2", func(c *Config) { c.Mem.L2.LatencyCycles = 20 }},
		{"L3", func(c *Config) { c.Mem.L3.LatencyCycles = 60 }},
		{"MemLatencyCyc", func(c *Config) { c.Mem.MemLatencyCyc = 300 }},
		{"MemLatencyBusy", func(c *Config) { c.Mem.MemLatencyBusy = 10 }},
		{"ITLB penalty", func(c *Config) { c.Mem.ITLB.MissPenaltyCycles = 60 }},
		{"DTLB penalty", func(c *Config) { c.Mem.DTLB.MissPenaltyCycles = 60 }},
	}
	tr := genTrace(t, "mcf", 30000)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			e, err := NewEvaluator(tr)
			if err != nil {
				t.Fatal(err)
			}
			other := base
			v.mutate(&other)
			rb := simulateBoth(t, e, base)
			ro := simulateBoth(t, e, other)
			if rb.Cycles == ro.Cycles {
				t.Fatalf("changing the %s latency left cycles at %v", v.name, rb.Cycles)
			}
		})
	}
	t.Run("L1 hit", func(t *testing.T) {
		// The L1 hit latency cancels out of every beyond-hit sum, so the
		// pair must agree; each must still match the direct walk.
		e, err := NewEvaluator(tr)
		if err != nil {
			t.Fatal(err)
		}
		other := base
		other.Mem.L1I.LatencyCycles, other.Mem.L1D.LatencyCycles = 3, 3
		if rb, ro := simulateBoth(t, e, base), simulateBoth(t, e, other); rb != ro {
			t.Fatalf("the L1 hit latency changed the result: %+v vs %+v", rb, ro)
		}
	})
}

func TestEvaluatorSharesCacheStackAcrossTLBs(t *testing.T) {
	e, err := NewEvaluator(genTrace(t, "mcf", 30000))
	if err != nil {
		t.Fatal(err)
	}
	small := baseConfig()
	large := baseConfig()
	large.Mem.ITLB.CoverageKB, large.Mem.DTLB.CoverageKB = 1024, 2048
	rs := simulateBoth(t, e, small)
	rl := simulateBoth(t, e, large)
	if n := len(e.stacks.entries); n != 1 {
		t.Fatalf("configs differing only in their TLBs made %d cache-stack entries, want 1", n)
	}
	if n, m := len(e.itlb.entries), len(e.dtlb.entries); n != 2 || m != 2 {
		t.Fatalf("ITLB/DTLB entries = %d/%d, want 2/2", n, m)
	}
	if rs.TLBCycles == rl.TLBCycles {
		t.Fatalf("different TLBs gave the same TLB cycles %v", rs.TLBCycles)
	}
}

func TestEvaluatorSharesL2AcrossL3s(t *testing.T) {
	tr := genTrace(t, "mcf", 30000)
	noL3 := baseConfig()
	withL3 := baseConfig()
	withL3.Mem.L3 = mem.CacheConfig{SizeKB: 8192, LineBytes: 256, Assoc: 8}
	DefaultLatencies(&withL3)
	// Each case simulates noL3 then withL3, each on its Scratch (nil for
	// the lazy Simulate path). On one Scratch the second config replays
	// the first one's L2 misses; across Scratches the stream is gone, so
	// the second config walks the L2 again outside the memo.
	one := new(Scratch)
	for _, tc := range []struct {
		name       string
		first, sec *Scratch
		kept       bool
	}{
		{"lazy", nil, nil, true},
		{"one scratch", one, one, false},
		{"two scratches", new(Scratch), new(Scratch), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEvaluator(tr)
			if err != nil {
				t.Fatal(err)
			}
			var res [2]Result
			for i, run := range []struct {
				cfg Config
				s   *Scratch
			}{{noL3, tc.first}, {withL3, tc.sec}} {
				got, err := e.SimulateOn(run.cfg, run.s)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracleSimulate(e, run.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles) {
					t.Fatalf("%+v:\n staged %+v\n direct %+v", run.cfg.Mem, got, want)
				}
				res[i] = got
			}
			if n, runs := len(e.l2.entries), e.l2.runs.Load(); n != 1 || runs != 1 {
				t.Fatalf("configs differing only in their L3 made %d L2 entries computed %d times, want 1 once", n, runs)
			}
			if n := len(e.stacks.entries); n != 2 {
				t.Fatalf("%d cache-stack entries, want 2", n)
			}
			for _, ent := range e.l2.entries {
				if ent.val.kept != tc.kept {
					t.Fatalf("L2 pass kept its miss stream: %v, want %v", ent.val.kept, tc.kept)
				}
			}
			if res[0].MemStats.L2Misses != res[1].MemStats.L2Misses || res[1].MemStats.L3Accesses != res[1].MemStats.L2Misses {
				t.Fatalf("L2 misses %d and %d, L3 accesses %d: want all equal",
					res[0].MemStats.L2Misses, res[1].MemStats.L2Misses, res[1].MemStats.L3Accesses)
			}
		})
	}
}
