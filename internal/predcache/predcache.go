// Package predcache is a sharded, generation-aware prediction cache
// with singleflight request coalescing for the serving path: the paper's
// whole premise is that surrogate predictions are cheap enough to query
// the entire design space repeatedly, and real DSE drivers hammer the
// same design points over and over — so the dominant waste in a hot
// serving daemon is recomputing identical rows.
//
// The cache is keyed per (model, artifact generation, canonical row
// hash). The hash is computed over the *encoded* feature row — the flat
// []float64 produced by dataset.Encoder.EncodeRowInto — not over the
// request JSON, so `1`, `1.0` and any other wire spellings of the same
// design point coalesce onto one entry, and rows for different models
// or different artifact generations can never alias each other.
//
// Bit-safety is unconditional, not probabilistic: every entry stores a
// copy of the encoded row it was keyed by, and a lookup only counts as
// a hit when the stored row is float64-equal to the probe. A hash
// collision therefore degrades to a miss (and evicts the colliding
// entry), never to a wrong answer — the cache is provably invisible in
// everything except latency.
//
// Concurrency: lookups that miss install a pending [Flight]; concurrent
// lookups of the same row ride that flight (one batcher slot for any
// number of identical in-flight rows) and wake when the leader calls
// [Cache.Fill] or [Cache.Abandon]. Shard-local mutexes bound contention;
// the resolved-hit path takes one shard lock, does one map probe plus a
// row compare, and allocates nothing.
package predcache

import (
	"container/list"
	"context"
	"sync"

	"perfpred/internal/obs"
)

// Config sizes a Cache.
type Config struct {
	// MaxEntries bounds the resolved entries held across all shards.
	// Pending flights are not evictable (their waiters hold references),
	// so momentary occupancy can exceed MaxEntries by the number of
	// in-flight misses — which the serving admission queue bounds.
	MaxEntries int
	// Shards is the number of lock shards, rounded up to a power of two.
	// Default 16.
	Shards int
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
	Coalesced     *obs.Counter
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
		Coalesced:     reg.Counter(obs.MetricCacheCoalesced),
		Evictions:     reg.Counter(obs.MetricCacheEvictions),
		Invalidations: reg.Counter(obs.MetricCacheInvalidations),
	}
}

// Key identifies one cached prediction: a registry model name, the
// registry catalog generation that model was resolved from, and the
// canonical hash of the encoded feature row. Generation is part of the
// key, so an entry filled under one catalog can never answer a lookup
// resolved under another — a reload is a hard cache boundary by
// construction, not by bookkeeping.
type Key struct {
	Model string
	Gen   int64
	Hash  uint64
}

// Outcome classifies a Lookup.
type Outcome int

const (
	// Hit: the value was resolved in cache; no flight involved.
	Hit Outcome = iota
	// Lead: the caller installed a pending flight and owns scoring it —
	// it must call Fill (success) or Abandon (failure) exactly once.
	Lead
	// Coalesce: another caller is already scoring this row; wait on the
	// returned flight.
	Coalesce
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Lead:
		return "lead"
	case Coalesce:
		return "coalesce"
	default:
		return "outcome(?)"
	}
}

// Flight is one pending or resolved cache entry. Leaders resolve it via
// Cache.Fill/Abandon; coalesced callers block in Wait. The flight stays
// usable after eviction or invalidation — waiters hold the pointer, so
// removal from the cache index never strands them.
type Flight struct {
	key Key
	row []float64
	sh  *shard

	// done is closed exactly once when the flight resolves; val and ok
	// are written before the close, so waiters read them race-free.
	done     chan struct{}
	val      float64
	ok       bool
	resolved bool
	inMap    bool
	elem     *list.Element
}

// Wait blocks until the flight resolves or ctx is done. ok=false means
// the leader abandoned the flight (its scoring failed) — the caller
// should score the row itself, without the cache.
func (f *Flight) Wait(ctx context.Context) (val float64, ok bool, err error) {
	select {
	case <-f.done:
		return f.val, f.ok, nil
	case <-ctx.Done():
		return 0, false, ctx.Err()
	}
}

// shard is one lock-striped slice of the index: a map for probes and an
// LRU list (front = most recent) for bounded memory.
type shard struct {
	mu  sync.Mutex
	m   map[Key]*Flight
	lru *list.List
	cap int
}

// Cache is a sharded, bounded, generation-aware prediction cache.
type Cache struct {
	shards []shard
	mask   uint64
	met    *Metrics
}

// New builds a cache. MaxEntries must be positive.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		panic("predcache: MaxEntries must be positive")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	perShard := (cfg.MaxEntries + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1), met: cfg.Metrics}
	for i := range c.shards {
		c.shards[i] = shard{m: make(map[Key]*Flight), lru: list.New(), cap: perShard}
	}
	return c
}

// Lookup probes the cache for key, verifying the stored encoded row is
// float64-equal to row before trusting a hit. It returns exactly one of:
//
//   - (val, nil, Hit): resolved value, bit-identical to what scoring
//     the row would produce;
//   - (0, f, Coalesce): another caller is scoring this row — Wait on f;
//   - (0, f, Lead): the caller now owns the row — score it and Fill or
//     Abandon f.
//
// The row slice is copied on Lead; callers may reuse their buffer
// immediately.
func (c *Cache) Lookup(key Key, row []float64) (float64, *Flight, Outcome) {
	c.met.Lookups.Inc()
	sh := &c.shards[key.Hash&c.mask]
	sh.mu.Lock()
	if f, exists := sh.m[key]; exists {
		if equalRows(f.row, row) {
			if f.resolved {
				sh.lru.MoveToFront(f.elem)
				val := f.val
				sh.mu.Unlock()
				c.met.Hits.Inc()
				return val, nil, Hit
			}
			sh.mu.Unlock()
			c.met.Misses.Inc()
			c.met.Coalesced.Inc()
			return 0, f, Coalesce
		}
		// Hash collision: two distinct rows share a key. Never serve the
		// stored value — drop it and let the newcomer lead. (Pending
		// colliders keep their flight; removal only unlinks the index.)
		sh.removeLocked(f)
		c.met.Evictions.Inc()
	}
	f := &Flight{
		key:   key,
		row:   append([]float64(nil), row...),
		sh:    sh,
		done:  make(chan struct{}),
		inMap: true,
	}
	sh.m[key] = f
	f.elem = sh.lru.PushFront(f)
	evicted := sh.evictOverflowLocked()
	sh.mu.Unlock()
	if evicted > 0 {
		c.met.Evictions.Add(int64(evicted))
	}
	c.met.Misses.Inc()
	return 0, f, Lead
}

// Fill resolves a led flight with its scored value. If the entry is
// still indexed it becomes a servable hit; if it was evicted or
// invalidated meanwhile, waiters still receive the value but future
// lookups miss.
func (c *Cache) Fill(f *Flight, val float64) {
	f.sh.mu.Lock()
	if !f.resolved {
		f.val, f.ok, f.resolved = val, true, true
		close(f.done)
	}
	f.sh.mu.Unlock()
}

// Abandon resolves a led flight as failed: waiters wake with ok=false
// and must score the row themselves, and the entry leaves the index so
// the next lookup leads a fresh flight.
func (c *Cache) Abandon(f *Flight) {
	f.sh.mu.Lock()
	if !f.resolved {
		f.ok, f.resolved = false, true
		close(f.done)
	}
	if f.inMap {
		f.sh.removeLocked(f)
	}
	f.sh.mu.Unlock()
}

// Invalidate drops every entry of a generation older than keepGen and
// returns how many were dropped. The serving daemon calls it after each
// successful reload; since generation is part of the key, stale entries
// were already unreachable — invalidation reclaims their memory
// promptly instead of waiting for LRU pressure. Newer generations are
// kept: concurrent reloads may invalidate out of order, and a late call
// for an older generation must not drop the live one.
func (c *Cache) Invalidate(keepGen int64) int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for key, f := range sh.m {
			if key.Gen < keepGen {
				sh.removeLocked(f)
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

// Len reports the total indexed entries (resolved + pending).
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

// removeLocked unlinks a flight from the shard index. Callers hold
// sh.mu. The flight itself stays resolvable — Fill/Abandon/Wait go
// through the pointer, not the index.
func (sh *shard) removeLocked(f *Flight) {
	delete(sh.m, f.key)
	sh.lru.Remove(f.elem)
	f.inMap = false
}

// evictOverflowLocked evicts least-recently-used *resolved* entries
// until the shard is within capacity, returning how many were dropped.
// Pending flights are skipped (their leaders and waiters hold them), so
// occupancy can transiently exceed cap by the pending count.
func (sh *shard) evictOverflowLocked() int {
	n := 0
	for len(sh.m) > sh.cap {
		victim := (*Flight)(nil)
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			if f := el.Value.(*Flight); f.resolved {
				victim = f
				break
			}
		}
		if victim == nil {
			break
		}
		sh.removeLocked(victim)
		n++
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
