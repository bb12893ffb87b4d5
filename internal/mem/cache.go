// Package mem implements the memory-hierarchy substrate of the
// microprocessor study: set-associative LRU caches (the L1 instruction and
// data caches, the unified L2 and the optional L3 of paper Table 1),
// instruction and data TLBs, and the HierarchyConfig and AccessStats that
// describe one design point's stack and its counters. The cpu package's
// Evaluator chains the levels with per-level latencies the way
// SimpleScalar's sim-outorder does.
package mem

import (
	"errors"
	"fmt"
)

// CacheConfig describes one cache level, mirroring the Table 1 columns.
type CacheConfig struct {
	// SizeKB is the total capacity in kilobytes. Zero means the level is
	// absent (the Table 1 "0 MB" L3 option).
	SizeKB int
	// LineBytes is the block size in bytes.
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// LatencyCycles is the hit latency of this level.
	LatencyCycles int
}

// Enabled reports whether the level exists.
func (c CacheConfig) Enabled() bool { return c.SizeKB > 0 }

// Validate checks the geometry: a power-of-two line of at least 2 bytes,
// positive associativity and latency, and a power-of-two set count.
func (c CacheConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	// A line of at least 2 bytes keeps every tag below 2^63, so tag+1
	// never wraps to the invalid marker.
	if c.LineBytes < 2 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: line size %dB must be a power of two of at least 2", c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("mem: associativity %d must be positive", c.Assoc)
	}
	if c.LatencyCycles <= 0 {
		return fmt.Errorf("mem: latency %d must be positive", c.LatencyCycles)
	}
	bytes := c.SizeKB * 1024
	lines := bytes / c.LineBytes
	if lines*c.LineBytes != bytes {
		return fmt.Errorf("mem: size %dKB not a multiple of line %dB", c.SizeKB, c.LineBytes)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("mem: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("mem: set count %d must be a positive power of two", sets)
	}
	return nil
}

// Cache is a set-associative cache with true-LRU replacement. Every set
// is a run of assoc entries in one flat array, most recently used first;
// an entry holds its line's tag plus one, and 0 marks an invalid way.
// Valid ways always form a prefix of their set, as fills enter at the MRU
// end and only Reset invalidates.
type Cache struct {
	cfg      CacheConfig
	lines    []uint64 // nsets×assoc entries, set s at [s*assoc, (s+1)*assoc)
	setMask  uint64
	lineBits uint
	accesses uint64
	misses   uint64
}

// NewCache builds a cache from a validated config. A disabled config
// yields an error; callers should skip absent levels.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if !cfg.Enabled() {
		return nil, errors.New("mem: cannot instantiate a disabled cache level")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeKB * 1024 / cfg.LineBytes
	c := &Cache{
		cfg:     cfg,
		lines:   make([]uint64, lines),
		setMask: uint64(lines/cfg.Assoc - 1),
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access looks up addr, making its line the MRU way of its set and
// filling it over the LRU way on a miss. It reports whether the access
// hit.
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	tag := addr >> c.lineBits
	base := int(tag&c.setMask) * c.cfg.Assoc
	ways := c.lines[base : base+c.cfg.Assoc]
	key := tag + 1
	w := 0
	for w < len(ways) && ways[w] != key {
		w++
	}
	hit := w < len(ways)
	if !hit {
		c.misses++
		w = len(ways) - 1 // evict the LRU way
	}
	copy(ways[1:w+1], ways[:w])
	ways[0] = key
	return hit
}

// Accesses returns the number of lookups performed.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of lookups that missed.
func (c *Cache) Misses() uint64 { return c.misses }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.lines)
	c.accesses, c.misses = 0, 0
}
