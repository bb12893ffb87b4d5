package cpu

import (
	"testing"

	"perfpred/internal/mem"
)

// hierarchy is the test oracle's memory system: it walks one access at a
// time through the configured cache/TLB stack, chaining the levels with
// per-level latencies. The staged Evaluator must reproduce its counts and
// latency sums bit for bit (oracleMem, TestEvaluatorMatchesOracle).
type hierarchy struct {
	cfg  mem.HierarchyConfig
	l1i  *mem.Cache
	l1d  *mem.Cache
	l2   *mem.Cache
	l3   *mem.Cache // nil when disabled
	itlb *mem.TLB
	dtlb *mem.TLB
}

// newHierarchy instantiates the configured levels.
func newHierarchy(cfg mem.HierarchyConfig) (*hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &hierarchy{cfg: cfg}
	var err error
	if h.l1i, err = mem.NewCache(cfg.L1I); err != nil {
		return nil, err
	}
	if h.l1d, err = mem.NewCache(cfg.L1D); err != nil {
		return nil, err
	}
	if h.l2, err = mem.NewCache(cfg.L2); err != nil {
		return nil, err
	}
	if cfg.L3.Enabled() {
		if h.l3, err = mem.NewCache(cfg.L3); err != nil {
			return nil, err
		}
	}
	if h.itlb, err = mem.NewTLB(cfg.ITLB); err != nil {
		return nil, err
	}
	if h.dtlb, err = mem.NewTLB(cfg.DTLB); err != nil {
		return nil, err
	}
	return h, nil
}

// backAccess charges the L2 → L3 → memory chain for an L1 miss at addr,
// returning the latency beyond the L1 and whether the access went all the
// way to memory.
func (h *hierarchy) backAccess(addr uint64) (lat int, toMem bool) {
	lat = h.cfg.L2.LatencyCycles
	if h.l2.Access(addr) {
		return lat, false
	}
	if h.l3 != nil {
		lat += h.cfg.L3.LatencyCycles
		if h.l3.Access(addr) {
			return lat, false
		}
	}
	return lat + h.cfg.MemLatencyCyc + h.cfg.MemLatencyBusy, true
}

// AccessInstParts performs an instruction fetch at addr and returns the
// TLB page-walk penalty and the cache-path latency separately, plus
// whether the fetch went all the way to memory.
func (h *hierarchy) AccessInstParts(addr uint64) (tlbCyc, cacheCyc int, toMem bool) {
	return h.accessParts(h.itlb, h.l1i, h.cfg.L1I, addr)
}

// AccessDataParts performs a load/store at addr with the same breakdown
// as AccessInstParts.
func (h *hierarchy) AccessDataParts(addr uint64) (tlbCyc, cacheCyc int, toMem bool) {
	return h.accessParts(h.dtlb, h.l1d, h.cfg.L1D, addr)
}

func (h *hierarchy) accessParts(tlb *mem.TLB, l1 *mem.Cache, c mem.CacheConfig, addr uint64) (tlbCyc, cacheCyc int, toMem bool) {
	tlbCyc = tlb.Access(addr)
	cacheCyc = c.LatencyCycles
	if !l1.Access(addr) {
		var extra int
		extra, toMem = h.backAccess(addr)
		cacheCyc += extra
	}
	return tlbCyc, cacheCyc, toMem
}

// AccessInst performs an instruction fetch at addr and returns its total
// latency in cycles (L1 hit latency included).
func (h *hierarchy) AccessInst(addr uint64) int {
	t, c, _ := h.AccessInstParts(addr)
	return t + c
}

// AccessData performs a load/store at addr and returns its total latency.
func (h *hierarchy) AccessData(addr uint64) int {
	t, c, _ := h.AccessDataParts(addr)
	return t + c
}

// Stats snapshots all counters.
func (h *hierarchy) Stats() mem.AccessStats {
	s := mem.AccessStats{L2Accesses: h.l2.Accesses(), L2Misses: h.l2.Misses(), MemAccesses: h.l2.Misses()}
	if h.l3 != nil {
		s.L3Accesses, s.L3Misses = h.l3.Accesses(), h.l3.Misses()
		s.MemAccesses = s.L3Misses
	}
	s.L1IAccesses, s.L1IMisses = h.l1i.Accesses(), h.l1i.Misses()
	s.L1DAccesses, s.L1DMisses = h.l1d.Accesses(), h.l1d.Misses()
	s.ITLBMisses, s.DTLBMisses = h.itlb.Misses(), h.dtlb.Misses()
	return s
}

func testHierCfg(l3 bool) mem.HierarchyConfig {
	tlb := func(cov int) mem.TLBConfig {
		return mem.TLBConfig{CoverageKB: cov, Assoc: 4, MissPenaltyCycles: 30}
	}
	cfg := mem.HierarchyConfig{
		L1I:           mem.CacheConfig{SizeKB: 16, LineBytes: 32, Assoc: 4, LatencyCycles: 1},
		L1D:           mem.CacheConfig{SizeKB: 16, LineBytes: 32, Assoc: 4, LatencyCycles: 1},
		L2:            mem.CacheConfig{SizeKB: 256, LineBytes: 128, Assoc: 4, LatencyCycles: 12},
		ITLB:          tlb(256),
		DTLB:          tlb(512),
		MemLatencyCyc: 200,
	}
	if l3 {
		cfg.L3 = mem.CacheConfig{SizeKB: 8192, LineBytes: 256, Assoc: 8, LatencyCycles: 40}
	}
	return cfg
}

func TestHierarchyLatencyChain(t *testing.T) {
	h, err := newHierarchy(testHierCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	// Cold data access: DTLB miss (30) + L1 (1) + L2 (12) + mem (200).
	if got := h.AccessData(0x100000); got != 30+1+12+200 {
		t.Fatalf("cold access latency = %d", got)
	}
	// Immediate re-access: all hits → just L1 latency.
	if got := h.AccessData(0x100000); got != 1 {
		t.Fatalf("hot access latency = %d", got)
	}
}

func TestHierarchyL3Interposes(t *testing.T) {
	h, err := newHierarchy(testHierCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	// Cold: DTLB 30 + L1 1 + L2 12 + L3 40 + mem 200.
	if got := h.AccessData(0x200000); got != 30+1+12+40+200 {
		t.Fatalf("cold access with L3 = %d", got)
	}
	st := h.Stats()
	if st.L3Accesses != 1 || st.L3Misses != 1 || st.MemAccesses != 1 {
		t.Fatalf("L3 stats %+v", st)
	}
}

func TestHierarchyL3CatchesL2Evictions(t *testing.T) {
	// Working set larger than L2 but smaller than L3: with L3 present the
	// second sweep never goes to memory.
	cfgL3 := testHierCfg(true)
	h3, _ := newHierarchy(cfgL3)
	h2, _ := newHierarchy(testHierCfg(false))
	// 1 MB working set (L2 = 256KB, L3 = 8MB).
	var addrs []uint64
	for a := uint64(0); a < 1<<20; a += 128 {
		addrs = append(addrs, a)
	}
	for pass := 0; pass < 2; pass++ {
		for _, a := range addrs {
			h3.AccessData(a)
			h2.AccessData(a)
		}
	}
	if h3.Stats().MemAccesses >= h2.Stats().MemAccesses {
		t.Fatalf("L3 should cut memory trips: %d vs %d",
			h3.Stats().MemAccesses, h2.Stats().MemAccesses)
	}
}

func TestHierarchyInstVsDataSeparate(t *testing.T) {
	h, err := newHierarchy(testHierCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	h.AccessInst(0x1000)
	h.AccessData(0x1000)
	st := h.Stats()
	if st.L1IAccesses != 1 || st.L1DAccesses != 1 {
		t.Fatalf("split L1 stats %+v", st)
	}
	// Both cold-missed into the shared L2.
	if st.L2Accesses != 2 {
		t.Fatalf("L2 accesses = %d, want 2 (unified)", st.L2Accesses)
	}
}

func TestBiggerL1ReducesLatencyOnLoopingWorkload(t *testing.T) {
	small := testHierCfg(false)
	small.L1D.SizeKB = 16
	big := testHierCfg(false)
	big.L1D.SizeKB = 64
	hs, _ := newHierarchy(small)
	hb, _ := newHierarchy(big)
	// 32 KB circulating working set.
	totalS, totalB := 0, 0
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 32*1024; a += 32 {
			totalS += hs.AccessData(a)
			totalB += hb.AccessData(a)
		}
	}
	if totalB >= totalS {
		t.Fatalf("64KB L1 total latency %d not better than 16KB %d", totalB, totalS)
	}
}
