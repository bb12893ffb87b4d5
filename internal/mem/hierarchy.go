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
}
