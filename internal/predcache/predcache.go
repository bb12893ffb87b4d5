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
// row compare, and allocates nothing. Once the cache is full, neither
// does a Put: the evicted tail entry is overwritten in place and moved
// to the front, its row buffer kept when the new row has the same
// width.
//
// A cache registers its own cache.* counters (lookups, hits, misses,
// evictions, invalidations) in the obs registry it is built over, so
// the serving daemon's /metrics shows them live, and [Cache.Stats]
// reads the same counters back for the daemon's report.
package predcache

import (
	"container/list"
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

// entry is one cached prediction and the row it was scored from.
type entry struct {
	key Key
	row []float64
	val float64
}

// Cache is a bounded, generation-aware prediction cache.
type Cache struct {
	mu sync.Mutex
	// m indexes the LRU list of *entry (front = most recent).
	m   map[Key]*list.Element
	lru *list.List
	cap int
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
	if maxEntries <= 0 {
		panic("predcache: maxEntries must be positive")
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Cache{
		m:             make(map[Key]*list.Element),
		lru:           list.New(),
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
// produce. Anything else, a hash collision included, is a miss.
func (c *Cache) Get(key Key, row []float64) (float64, bool) {
	c.lookups.Inc()
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		if e := el.Value.(*entry); equalRows(e.row, row) {
			c.lru.MoveToFront(el)
			val := e.val
			c.mu.Unlock()
			c.hits.Inc()
			return val, true
		}
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
	if el, ok := c.m[key]; ok {
		e := el.Value.(*entry)
		if !equalRows(e.row, row) {
			e.row, e.val = append(e.row[:0], row...), val
			evicted = true
		}
		c.lru.MoveToFront(el)
	} else if c.lru.Len() < c.cap {
		c.m[key] = c.lru.PushFront(&entry{key: key, row: append([]float64(nil), row...), val: val})
	} else {
		// Full: the least recently used entry becomes the new one, so an
		// eviction frees nothing and the insert allocates nothing. Its row
		// buffer is reused only at equal width: models of different widths
		// share the cache, and a buffer kept for a narrower row would hold
		// the widest capacity any entry ever had.
		el := c.lru.Back()
		e := el.Value.(*entry)
		delete(c.m, e.key)
		if len(e.row) == len(row) {
			copy(e.row, row)
		} else {
			e.row = append([]float64(nil), row...)
		}
		e.key, e.val = key, val
		c.lru.MoveToFront(el)
		c.m[key] = el
		evicted = true
	}
	c.mu.Unlock()
	if evicted {
		c.evictions.Inc()
	}
}

// Invalidate drops every entry of a generation older than keepGen,
// refuses later Puts of such generations, and returns how many entries
// were dropped. The serving daemon calls it after each successful
// reload; since generation is part of the key, stale entries were
// already unreachable — invalidation reclaims their memory promptly
// instead of waiting for LRU pressure. Newer generations are kept:
// concurrent reloads may invalidate out of order, and a late call for
// an older generation must not drop the live one.
func (c *Cache) Invalidate(keepGen int64) int {
	n := 0
	c.mu.Lock()
	c.floor = max(c.floor, keepGen)
	for key, el := range c.m {
		if key.Gen < keepGen {
			delete(c.m, key)
			c.lru.Remove(el)
			n++
		}
	}
	c.mu.Unlock()
	if n > 0 {
		c.invalidations.Add(int64(n))
	}
	return n
}

// equalRows is exact float64 equality. -0 and +0 compare equal (they
// encode the same design point); NaN never matches anything, which
// degrades a (structurally impossible for validated requests) NaN row
// to a permanent miss rather than a wrong answer.
func equalRows(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
