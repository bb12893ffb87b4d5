// Package predcache is a sharded, generation-aware, bounded LRU of
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
// land on one entry. Shard-local mutexes bound contention; a hit takes
// one shard lock, does one map probe plus a row compare, and allocates
// nothing.
package predcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"perfpred/internal/obs"
)

// shardCount is the number of lock shards.
const shardCount = 16

// Config sizes a Cache.
type Config struct {
	// MaxEntries bounds the entries held across all shards.
	MaxEntries int
	// Metrics receives the cache's counters; nil records into a private
	// registry (counted but unobservable — tests and tools that only
	// need behaviour).
	Metrics *Metrics
}

// Metrics bundles the obs counters the cache records into. Names are
// the obs.MetricCache* constants so live /metrics and the final
// ServeReport read the same entries.
type Metrics struct {
	Lookups       *obs.Counter
	Hits          *obs.Counter
	Misses        *obs.Counter
	Evictions     *obs.Counter
	Invalidations *obs.Counter
}

// NewMetrics resolves the cache counters in reg (nil creates a private
// registry).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		Lookups:       reg.Counter(obs.MetricCacheLookups),
		Hits:          reg.Counter(obs.MetricCacheHits),
		Misses:        reg.Counter(obs.MetricCacheMisses),
		Evictions:     reg.Counter(obs.MetricCacheEvictions),
		Invalidations: reg.Counter(obs.MetricCacheInvalidations),
	}
}

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

// shard is one lock-striped slice of the index: a map for probes and an
// LRU list of *entry (front = most recent) for bounded memory.
type shard struct {
	mu  sync.Mutex
	m   map[Key]*list.Element
	lru *list.List
	cap int
}

// Cache is a sharded, bounded, generation-aware prediction cache.
type Cache struct {
	shards [shardCount]shard
	// floor is the highest keepGen passed to Invalidate; Put drops
	// entries of older generations.
	floor atomic.Int64
	met   *Metrics
}

// New builds a cache. MaxEntries must be positive.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		panic("predcache: MaxEntries must be positive")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	c := &Cache{met: cfg.Metrics}
	for i := range c.shards {
		c.shards[i] = shard{
			m:   make(map[Key]*list.Element),
			lru: list.New(),
			cap: (cfg.MaxEntries + shardCount - 1) / shardCount,
		}
	}
	return c
}

// Get returns the value stored for key when the entry's row is
// float64-equal to row — bit-identical to what scoring the row would
// produce. Anything else, a hash collision included, is a miss.
func (c *Cache) Get(key Key, row []float64) (float64, bool) {
	c.met.Lookups.Inc()
	sh := &c.shards[key.Hash%shardCount]
	sh.mu.Lock()
	if el, ok := sh.m[key]; ok {
		if e := el.Value.(*entry); equalRows(e.row, row) {
			sh.lru.MoveToFront(el)
			val := e.val
			sh.mu.Unlock()
			c.met.Hits.Inc()
			return val, true
		}
	}
	sh.mu.Unlock()
	c.met.Misses.Inc()
	return 0, false
}

// Put stores val as the prediction for row under key, copying row so the
// caller may reuse its buffer. An entry for an equal row is only moved
// to the front; one for a colliding row is replaced, which counts as an
// eviction. A key whose generation a reload already invalidated is
// dropped, so a value scored before the reload never re-enters the
// index.
func (c *Cache) Put(key Key, row []float64, val float64) {
	sh := &c.shards[key.Hash%shardCount]
	evicted := 0
	sh.mu.Lock()
	if key.Gen < c.floor.Load() {
		sh.mu.Unlock()
		return
	}
	if el, ok := sh.m[key]; ok {
		e := el.Value.(*entry)
		if !equalRows(e.row, row) {
			e.row, e.val = append(e.row[:0], row...), val
			evicted++
		}
		sh.lru.MoveToFront(el)
	} else {
		sh.m[key] = sh.lru.PushFront(&entry{key: key, row: append([]float64(nil), row...), val: val})
		for sh.lru.Len() > sh.cap {
			sh.remove(sh.lru.Back())
			evicted++
		}
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.met.Evictions.Add(int64(evicted))
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
	// Raise the floor before sweeping: a Put that reads the old floor
	// holds its shard lock, so the sweep of that shard comes after it.
	for {
		f := c.floor.Load()
		if f >= keepGen || c.floor.CompareAndSwap(f, keepGen) {
			break
		}
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for key, el := range sh.m {
			if key.Gen < keepGen {
				sh.remove(el)
				n++
			}
		}
		sh.mu.Unlock()
	}
	if n > 0 {
		c.met.Invalidations.Add(int64(n))
	}
	return n
}

// Len reports the total indexed entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// remove unlinks an entry from the shard index. Callers hold sh.mu.
func (sh *shard) remove(el *list.Element) {
	delete(sh.m, sh.lru.Remove(el).(*entry).key)
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
