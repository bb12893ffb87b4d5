// Package predcache is a generation-aware, bounded LRU of
// predictions for the serving path: the paper's whole premise is that
// surrogate predictions are cheap enough to query the entire design
// space repeatedly, and real DSE drivers hammer the same design points
// over and over — so a hot serving daemon answers repeats from memory.
//
// The cache is keyed per (model, artifact generation, canonical row
// hash). The hash is computed over the *encoded* feature row — the flat
// []float64 produced by dataset.Encoder.EncodeRows — not over the
// request JSON, so `1`, `1.0` and any other wire spellings of the same
// design point share one entry, and rows for different models or
// different artifact generations can never alias each other.
//
// Bit-safety is unconditional, not probabilistic: every entry stores a
// copy of the encoded row it was keyed by, and [Cache.Get] only counts a
// hit when the stored row is float64-equal to the probe. A hash
// collision therefore degrades to a miss, never to a wrong answer — the
// cache is provably invisible in everything except latency.
//
// The cache is a plain get/put store: a miss is scored by the caller
// and stored with [Cache.Put]. Concurrent misses of one row are each
// scored (a row costs the kernel a microsecond or two), and their Puts
// land on one entry. One mutex guards one map and one LRU list, so the
// cache never holds more than its capacity and always evicts its least
// recently used entry. A hit takes the lock, does one map probe plus a
// row compare, and allocates nothing. Once the stride, the widest row
// width stored so far, has reached the widest model's rows and the
// chunks of slots exist, no Put allocates either, whatever widths its
// rows mix: it reuses a slot Invalidate freed or the LRU tail's.
//
// A cache registers its own cache.* counters (lookups, hits, misses,
// evictions, invalidations) in the obs registry it is built over, so
// the serving daemon's /metrics shows them live, and [Cache.Stats]
// reads the same counters back for the daemon's report.
package predcache

import (
	"math"
	"slices"
	"sync"

	"perfpred/internal/obs"
)

// Key identifies one cached prediction: a registry model name, the
// registry catalog generation that model was resolved from, and the
// canonical hash of the encoded feature row. Generation is part of the
// key, so an entry stored under one catalog can never answer a lookup
// resolved under another — a reload is a hard cache boundary by
// construction, not by bookkeeping.
type Key struct {
	Model string
	Gen   int64
	Hash  uint64
}

// chunkSlots is the number of slots the cache allocates at a time, never
// by doubling, so a cache holds at most one chunk of slots it does not use.
const chunkSlots = 64

const none = -1 // Cache.root's index, which ends the LRU and free lists

// slot is one cached prediction and its links in the LRU list (next also
// links the free list); width is the length of its row.
type slot struct {
	key               Key
	val               float64
	prev, next, width int32
}

// Cache is a bounded, generation-aware prediction cache.
type Cache struct {
	mu sync.Mutex
	// m indexes the slots. The LRU list is circular through root (next
	// is the most recent slot); free lists the slots Invalidate dropped.
	m           map[Key]int32
	chunks      []*[chunkSlots]slot
	rows        [][]float64 // chunk k's rows, slot j's at rows[k][j*stride:]
	root        slot
	stride, cap int
	used, free  int32 // used counts the slots ever handed out
	// floor is the highest keepGen passed to Invalidate; Put drops
	// entries of older generations.
	floor int64
	// The cache.* counters. Each Get is one lookup and exactly one hit
	// (answered from an entry, no kernel work) or miss (the caller
	// scores it). Evictions are entries dropped for capacity (LRU) or
	// replaced by a hash-colliding row; invalidations are entries
	// dropped because a reload superseded their artifact generation.
	lookups, hits, misses, evictions, invalidations *obs.Counter
}

// New builds a cache bounded to maxEntries (which must be positive)
// that registers its cache.* counters in reg; a nil reg keeps them in a
// private registry, readable only through Stats.
func New(maxEntries int, reg *obs.Registry) *Cache {
	if maxEntries <= 0 || maxEntries > math.MaxInt32 {
		panic("predcache: maxEntries must be positive and fit in an int32")
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Cache{
		m:             make(map[Key]int32),
		root:          slot{prev: none, next: none},
		free:          none,
		cap:           maxEntries,
		lookups:       reg.Counter("cache.lookups"),
		hits:          reg.Counter("cache.hits"),
		misses:        reg.Counter("cache.misses"),
		evictions:     reg.Counter("cache.evictions"),
		invalidations: reg.Counter("cache.invalidations"),
	}
}

// Stats is a snapshot of a cache's lifetime counters. A live snapshot
// can catch a lookup between its counter increments, so Hits + Misses
// == Lookups holds only once the cache is quiescent.
type Stats struct {
	Lookups       int64 `json:"lookups"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Lookups:       c.lookups.Value(),
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Evictions:     c.evictions.Value(),
		Invalidations: c.invalidations.Value(),
	}
}

// Get returns the value stored for key when the entry's row is
// float64-equal to row — bit-identical to what scoring the row would
// produce. Anything else, a hash collision included, is a miss; -0 and
// +0 compare equal, and a row with a NaN cell never hits.
func (c *Cache) Get(key Key, row []float64) (float64, bool) {
	c.lookups.Inc()
	c.mu.Lock()
	if i, ok := c.m[key]; ok && slices.Equal(c.row(i), row) {
		c.unlink(i)
		c.pushFront(i)
		val := c.slot(i).val
		c.mu.Unlock()
		c.hits.Inc()
		return val, true
	}
	c.mu.Unlock()
	c.misses.Inc()
	return 0, false
}

// Put stores val as the prediction for row under key, copying row so the
// caller may reuse its buffer. An entry for an equal row is only moved
// to the front; one for a colliding row is replaced, which counts as an
// eviction. A key whose generation a reload already invalidated is
// dropped, so a value scored before the reload never re-enters the
// index.
func (c *Cache) Put(key Key, row []float64, val float64) {
	evicted := false
	c.mu.Lock()
	if key.Gen < c.floor {
		c.mu.Unlock()
		return
	}
	if len(row) > c.stride {
		c.widen(len(row))
	}
	i, ok := c.m[key]
	switch {
	case ok:
		evicted = !slices.Equal(c.row(i), row)
		c.unlink(i)
	case c.free != none:
		i, c.free = c.free, c.slot(c.free).next
	case int(c.used) < c.cap:
		i, c.used = c.used, c.used+1
		if i%chunkSlots == 0 {
			c.chunks = append(c.chunks, new([chunkSlots]slot))
			c.rows = append(c.rows, make([]float64, chunkSlots*c.stride))
		}
	default: // full: the LRU tail's slot takes the new entry
		i = c.root.prev
		delete(c.m, c.slot(i).key)
		c.unlink(i)
		evicted = true
	}
	if !ok || evicted {
		s := c.slot(i)
		s.key, s.val, s.width = key, val, int32(len(row))
		copy(c.row(i), row)
		c.m[key] = i
	}
	c.pushFront(i)
	c.mu.Unlock()
	if evicted {
		c.evictions.Inc()
	}
}

// Invalidate drops every entry of a generation older than keepGen,
// refuses later Puts of such generations, and returns how many entries
// were dropped. The serving daemon calls it after each successful
// reload; since generation is part of the key, stale entries were
// already unreachable — invalidation frees their slots promptly for the
// new generation instead of waiting for LRU pressure. Newer generations
// are kept: concurrent reloads may invalidate out of order, and a late
// call for an older generation must not drop the live one.
func (c *Cache) Invalidate(keepGen int64) int {
	n := 0
	c.mu.Lock()
	c.floor = max(c.floor, keepGen)
	for key, i := range c.m {
		if key.Gen < keepGen {
			delete(c.m, key)
			c.unlink(i)
			c.slot(i).next, c.free = c.free, i
			n++
		}
	}
	c.mu.Unlock()
	if n > 0 {
		c.invalidations.Add(int64(n))
	}
	return n
}

// slot returns slot i, or root for none.
func (c *Cache) slot(i int32) *slot {
	if i == none {
		return &c.root
	}
	return &c.chunks[i/chunkSlots][i%chunkSlots]
}

// row returns slot i's row, at the slot's own width.
func (c *Cache) row(i int32) []float64 {
	off := int(i%chunkSlots) * c.stride
	return c.rows[i/chunkSlots][off : off+int(c.slot(i).width)]
}

// unlink takes slot i out of the LRU list.
func (c *Cache) unlink(i int32) {
	s := c.slot(i)
	c.slot(s.prev).next = s.next
	c.slot(s.next).prev = s.prev
}

// pushFront makes slot i the most recently used.
func (c *Cache) pushFront(i int32) {
	s := c.slot(i)
	s.prev, s.next = none, c.root.next
	c.slot(s.next).prev = i
	c.root.next = i
}

// widen re-lays every chunk's rows at a wider stride w, carrying each
// slot's row over: once per new widest row width in the cache's life.
func (c *Cache) widen(w int) {
	for k, old := range c.rows {
		c.rows[k] = make([]float64, chunkSlots*w)
		for j := range chunkSlots {
			copy(c.rows[k][j*w:], old[j*c.stride:(j+1)*c.stride])
		}
	}
	c.stride = w
}
