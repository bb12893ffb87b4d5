package mem

import "testing"

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
