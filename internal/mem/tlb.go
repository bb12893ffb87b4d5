package mem

import "fmt"

// PageBytes is the virtual page size assumed by the TLB model (4 KiB,
// SimpleScalar's default).
const PageBytes = 4096

// TLBConfig describes a translation lookaside buffer by its coverage —
// Table 1 expresses TLB sizes as the kilobytes of address space covered
// (e.g. a 256 KB ITLB covers 64 pages).
type TLBConfig struct {
	CoverageKB int
	Assoc      int
	// MissPenaltyCycles is the page-walk cost charged per miss.
	MissPenaltyCycles int
}

// Entries returns the number of TLB entries implied by the coverage.
func (c TLBConfig) Entries() int { return c.CoverageKB * 1024 / PageBytes }

// Validate checks the TLB geometry.
func (c TLBConfig) Validate() error {
	e := c.Entries()
	if e <= 0 || e&(e-1) != 0 {
		return fmt.Errorf("mem: TLB coverage %dKB implies %d entries; need a positive power of two", c.CoverageKB, e)
	}
	if c.Assoc <= 0 || e%c.Assoc != 0 {
		return fmt.Errorf("mem: TLB associativity %d incompatible with %d entries", c.Assoc, e)
	}
	if c.MissPenaltyCycles <= 0 {
		return fmt.Errorf("mem: TLB miss penalty %d must be positive", c.MissPenaltyCycles)
	}
	return nil
}

// TLB is a set-associative translation cache over 4 KiB pages.
type TLB struct {
	cache   *Cache
	penalty int
}

// NewTLB builds a TLB from a validated config.
func NewTLB(cfg TLBConfig) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	entries := cfg.Entries()
	// Reuse the cache machinery: one "line" per page.
	inner, err := NewCache(CacheConfig{
		SizeKB:        entries * PageBytes / 1024,
		LineBytes:     PageBytes,
		Assoc:         cfg.Assoc,
		LatencyCycles: 1,
	})
	if err != nil {
		return nil, err
	}
	return &TLB{cache: inner, penalty: cfg.MissPenaltyCycles}, nil
}

// Access translates addr; it returns the page-walk penalty in cycles
// (0 on a TLB hit).
func (t *TLB) Access(addr uint64) int {
	if t.cache.Access(addr) {
		return 0
	}
	return t.penalty
}

// Misses returns the number of translations that missed.
func (t *TLB) Misses() uint64 { return t.cache.Misses() }
