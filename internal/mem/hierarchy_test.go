package mem

import (
	"math/rand"
	"testing"
)

func testTLB(cov int) TLBConfig {
	return TLBConfig{CoverageKB: cov, Assoc: 4, MissPenaltyCycles: 30}
}

func testHierCfg(l3 bool) HierarchyConfig {
	cfg := HierarchyConfig{
		L1I:           CacheConfig{SizeKB: 16, LineBytes: 32, Assoc: 4, LatencyCycles: 1},
		L1D:           CacheConfig{SizeKB: 16, LineBytes: 32, Assoc: 4, LatencyCycles: 1},
		L2:            CacheConfig{SizeKB: 256, LineBytes: 128, Assoc: 4, LatencyCycles: 12},
		ITLB:          testTLB(256),
		DTLB:          testTLB(512),
		MemLatencyCyc: 200,
	}
	if l3 {
		cfg.L3 = CacheConfig{SizeKB: 8192, LineBytes: 256, Assoc: 8, LatencyCycles: 40}
	}
	return cfg
}

func TestTLBConfig(t *testing.T) {
	cfg := testTLB(256)
	if cfg.Entries() != 64 {
		t.Fatalf("256KB coverage = %d entries, want 64", cfg.Entries())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []TLBConfig{
		{CoverageKB: 0, Assoc: 4, MissPenaltyCycles: 30},
		{CoverageKB: 12, Assoc: 4, MissPenaltyCycles: 30}, // 3 entries
		{CoverageKB: 256, Assoc: 0, MissPenaltyCycles: 30},
		{CoverageKB: 256, Assoc: 4, MissPenaltyCycles: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad TLB case %d: want error", i)
		}
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb, err := NewTLB(testTLB(256))
	if err != nil {
		t.Fatal(err)
	}
	if got := tlb.Access(0x10000); got != 30 {
		t.Fatalf("cold TLB access penalty = %d, want 30", got)
	}
	if got := tlb.Access(0x10000 + 100); got != 0 {
		t.Fatalf("same-page access penalty = %d, want 0", got)
	}
	if tlb.Misses() != 1 || tlb.cache.Accesses() != 2 {
		t.Fatalf("stats %d/%d", tlb.Misses(), tlb.cache.Accesses())
	}
}

func TestHierarchyValidate(t *testing.T) {
	if err := testHierCfg(false).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := testHierCfg(true).Validate(); err != nil {
		t.Fatal(err)
	}
	noL2 := testHierCfg(false)
	noL2.L2 = CacheConfig{}
	if err := noL2.Validate(); err == nil {
		t.Fatal("missing L2: want error")
	}
	badMem := testHierCfg(false)
	badMem.MemLatencyCyc = 0
	if err := badMem.Validate(); err == nil {
		t.Fatal("zero memory latency: want error")
	}
	badTLB := testHierCfg(false)
	badTLB.ITLB.CoverageKB = 0
	if err := badTLB.Validate(); err == nil {
		t.Fatal("bad ITLB: want error")
	}
}

func TestHierarchyLatencyChain(t *testing.T) {
	h, err := NewHierarchy(testHierCfg(false))
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
	h, err := NewHierarchy(testHierCfg(true))
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
	h3, _ := NewHierarchy(cfgL3)
	h2, _ := NewHierarchy(testHierCfg(false))
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
	h, err := NewHierarchy(testHierCfg(false))
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
	hs, _ := NewHierarchy(small)
	hb, _ := NewHierarchy(big)
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

func TestNextLinePrefetchHelpsStreaming(t *testing.T) {
	// A pure streaming sweep: with next-line prefetch most demand accesses
	// hit because the previous miss installed the line.
	base := testHierCfg(false)
	pf := base
	pf.NextLinePrefetch = true
	hBase, err := NewHierarchy(base)
	if err != nil {
		t.Fatal(err)
	}
	hPF, err := NewHierarchy(pf)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 1 MB line by line (32B L1D lines).
	for a := uint64(0); a < 1<<20; a += 32 {
		hBase.AccessData(a)
		hPF.AccessData(a)
	}
	sb, sp := hBase.Stats(), hPF.Stats()
	if sp.Prefetches == 0 {
		t.Fatal("prefetcher issued nothing on a stream")
	}
	if sp.L1DMisses*3 > sb.L1DMisses*2 {
		t.Fatalf("prefetch should cut streaming L1D misses by ≥1/3: %d vs %d", sp.L1DMisses, sb.L1DMisses)
	}
	if sb.Prefetches != 0 {
		t.Fatal("disabled prefetcher counted prefetches")
	}
}

func TestNextLinePrefetchUselessOnRandom(t *testing.T) {
	base := testHierCfg(false)
	pf := base
	pf.NextLinePrefetch = true
	hBase, _ := NewHierarchy(base)
	hPF, _ := NewHierarchy(pf)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 30000; i++ {
		a := uint64(r.Intn(1<<24)) &^ 31
		hBase.AccessData(a)
		hPF.AccessData(a)
	}
	sb, sp := hBase.Stats(), hPF.Stats()
	// Random pointers: prefetching buys (almost) nothing.
	if float64(sp.L1DMisses) < 0.95*float64(sb.L1DMisses) {
		t.Fatalf("prefetch should not help random accesses much: %d vs %d", sp.L1DMisses, sb.L1DMisses)
	}
}

func TestInstallDoesNotPerturbStats(t *testing.T) {
	c := smallCache(t)
	c.Access(0x40)
	c.Install(0x80)
	if c.Accesses() != 1 || c.Misses() != 1 {
		t.Fatalf("Install changed stats: %d/%d", c.Misses(), c.Accesses())
	}
	// But the installed line is resident.
	if !c.Access(0x80) {
		t.Fatal("installed line not resident")
	}
}
