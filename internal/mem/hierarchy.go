package mem

import "fmt"

// HierarchyConfig assembles the full memory subsystem of one design-space
// point: split L1s, a unified L2, an optional L3, the two TLBs and the
// main-memory latency.
type HierarchyConfig struct {
	L1I, L1D CacheConfig
	L2       CacheConfig
	// L3 may be disabled (SizeKB == 0), matching Table 1's "0 MB" option.
	L3             CacheConfig
	ITLB, DTLB     TLBConfig
	MemLatencyCyc  int
	MemLatencyBusy int // per-access occupancy added on memory trips
	// NextLinePrefetch enables a simple tagged next-line prefetcher on the
	// L1D: a demand miss also installs the following line. An extension
	// beyond the paper's Table 1 space — streaming workloads benefit,
	// pointer chases do not (see the ablation benchmark).
	NextLinePrefetch bool
}

// Validate checks every level.
func (c HierarchyConfig) Validate() error {
	if !c.L1I.Enabled() || !c.L1D.Enabled() || !c.L2.Enabled() {
		return fmt.Errorf("mem: L1I, L1D and L2 must all be present")
	}
	for _, lv := range []struct {
		name string
		cfg  CacheConfig
	}{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}, {"L3", c.L3}} {
		if err := lv.cfg.Validate(); err != nil {
			return fmt.Errorf("%s: %w", lv.name, err)
		}
	}
	if err := c.ITLB.Validate(); err != nil {
		return fmt.Errorf("ITLB: %w", err)
	}
	if err := c.DTLB.Validate(); err != nil {
		return fmt.Errorf("DTLB: %w", err)
	}
	if c.MemLatencyCyc <= 0 {
		return fmt.Errorf("mem: main-memory latency must be positive")
	}
	return nil
}

// AccessStats aggregates the counters of a hierarchy simulation.
type AccessStats struct {
	L1IAccesses, L1IMisses uint64
	L1DAccesses, L1DMisses uint64
	L2Accesses, L2Misses   uint64
	L3Accesses, L3Misses   uint64
	ITLBMisses, DTLBMisses uint64
	MemAccesses            uint64
	// Prefetches counts next-line prefetch fills issued (0 when the
	// prefetcher is disabled).
	Prefetches uint64
}

// Hierarchy simulates the configured cache/TLB stack.
type Hierarchy struct {
	cfg        HierarchyConfig
	l1i        *Cache
	l1d        *Cache
	l2         *Cache
	l3         *Cache // nil when disabled
	itlb       *TLB
	dtlb       *TLB
	prefetches uint64
}

// NewHierarchy instantiates the configured levels.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg}
	var err error
	if h.l1i, err = NewCache(cfg.L1I); err != nil {
		return nil, err
	}
	if h.l1d, err = NewCache(cfg.L1D); err != nil {
		return nil, err
	}
	if h.l2, err = NewCache(cfg.L2); err != nil {
		return nil, err
	}
	if cfg.L3.Enabled() {
		if h.l3, err = NewCache(cfg.L3); err != nil {
			return nil, err
		}
	}
	if h.itlb, err = NewTLB(cfg.ITLB); err != nil {
		return nil, err
	}
	if h.dtlb, err = NewTLB(cfg.DTLB); err != nil {
		return nil, err
	}
	return h, nil
}

// backAccess charges the L2 → L3 → memory chain for an L1 miss at addr,
// returning the latency beyond the L1 and whether the access went all the
// way to memory.
func (h *Hierarchy) backAccess(addr uint64) (lat int, toMem bool) {
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
// whether the fetch went all the way to memory. The CPU model overlaps
// the parts differently: page walks serialize, on-chip cache misses hide
// inside the instruction window, and memory trips are limited by the
// workload's memory-level parallelism.
func (h *Hierarchy) AccessInstParts(addr uint64) (tlbCyc, cacheCyc int, toMem bool) {
	tlbCyc = h.itlb.Access(addr)
	cacheCyc = h.cfg.L1I.LatencyCycles
	if !h.l1i.Access(addr) {
		extra, mem := h.backAccess(addr)
		cacheCyc += extra
		toMem = mem
	}
	return tlbCyc, cacheCyc, toMem
}

// AccessDataParts performs a load/store at addr with the same breakdown
// as AccessInstParts.
func (h *Hierarchy) AccessDataParts(addr uint64) (tlbCyc, cacheCyc int, toMem bool) {
	tlbCyc = h.dtlb.Access(addr)
	cacheCyc = h.cfg.L1D.LatencyCycles
	if !h.l1d.Access(addr) {
		extra, mem := h.backAccess(addr)
		cacheCyc += extra
		toMem = mem
		if h.cfg.NextLinePrefetch {
			// Tagged next-line prefetch: the demand miss also installs the
			// following line (its latency overlaps the demand fill).
			next := addr + uint64(h.cfg.L1D.LineBytes)
			if !h.l1d.Install(next) {
				h.l2.Install(next)
				h.prefetches++
			}
		}
	}
	return tlbCyc, cacheCyc, toMem
}

// AccessInst performs an instruction fetch at addr and returns its total
// latency in cycles (L1 hit latency included).
func (h *Hierarchy) AccessInst(addr uint64) int {
	t, c, _ := h.AccessInstParts(addr)
	return t + c
}

// AccessData performs a load/store at addr and returns its total latency.
func (h *Hierarchy) AccessData(addr uint64) int {
	t, c, _ := h.AccessDataParts(addr)
	return t + c
}

// Stats snapshots all counters.
func (h *Hierarchy) Stats() AccessStats {
	s := AccessStats{L2Accesses: h.l2.Accesses(), L2Misses: h.l2.Misses(), MemAccesses: h.l2.Misses()}
	if h.l3 != nil {
		s.L3Accesses, s.L3Misses = h.l3.Accesses(), h.l3.Misses()
		s.MemAccesses = s.L3Misses
	}
	s.L1IAccesses, s.L1IMisses = h.l1i.Accesses(), h.l1i.Misses()
	s.L1DAccesses, s.L1DMisses = h.l1d.Accesses(), h.l1d.Misses()
	s.ITLBMisses, s.DTLBMisses = h.itlb.Misses(), h.dtlb.Misses()
	s.Prefetches = h.prefetches
	return s
}
