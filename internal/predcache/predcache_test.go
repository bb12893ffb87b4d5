package predcache

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// entries is the number of rows the cache indexes.
func entries(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func key(model string, gen int64, row []float64) Key {
	return Key{Model: model, Gen: gen, Hash: HashRow(row)}
}

func TestLookupMissFillHit(t *testing.T) {
	c := New(64, nil)
	row := []float64{1, 2.5, 0, 1}
	k := key("m", 1, row)

	if val, ok := c.Get(k, row); ok || val != 0 {
		t.Fatalf("first Get: %v %v, want a miss", val, ok)
	}
	c.Put(k, row, 42.5)
	if val, ok := c.Get(k, row); !ok || val != 42.5 {
		t.Fatalf("second Get: %v %v, want a hit on 42.5", val, ok)
	}
	if st := c.Stats(); st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("counters: %+v, want 2 lookups, 1 hit, 1 miss", st)
	}
	// A Put of an equal row only refreshes the entry: one entry, no
	// eviction, and the stored value stands.
	c.Put(k, []float64{1, 2.5, 0, 1}, 99)
	if val, ok := c.Get(k, row); !ok || val != 42.5 || entries(c) != 1 || c.Stats().Evictions != 0 {
		t.Fatalf("after equal Put: %v %v len=%d evictions=%d, want a hit on 42.5, 1 entry, 0 evictions",
			val, ok, entries(c), c.Stats().Evictions)
	}
}

// TestLookupCopiesRow pins the Put contract that makes encode-buffer
// reuse safe: the caller may overwrite its row buffer immediately after
// Put returns.
func TestLookupCopiesRow(t *testing.T) {
	c := New(64, nil)
	buf := []float64{1, 2}
	k := key("m", 1, buf)
	c.Put(k, buf, 7)
	buf[0], buf[1] = 99, 99 // clobber the caller's buffer
	if val, ok := c.Get(k, []float64{1, 2}); !ok || val != 7 {
		t.Fatalf("Get after buffer clobber: %v %v, want a hit on 7", val, ok)
	}
}

// TestLRUEviction pins cache-wide LRU order: a Put into a full cache
// evicts the least recently used entry of the whole cache, whatever the
// keys' hashes.
func TestLRUEviction(t *testing.T) {
	c := New(3, nil)
	rows := [][]float64{{1}, {2}, {3}, {4}}
	keyOf := func(i int) Key { return Key{Model: "m", Gen: 1, Hash: uint64(i)} }

	for i, r := range rows[:3] {
		c.Put(keyOf(i), r, float64(i))
	}
	// Touch row 0 so row 1 becomes the LRU victim.
	if _, ok := c.Get(keyOf(0), rows[0]); !ok {
		t.Fatal("warm Get missed")
	}
	// Inserting a 4th entry evicts exactly one entry: row 1.
	c.Put(keyOf(3), rows[3], 3)
	if entries(c) != 3 {
		t.Fatalf("Len after eviction: %d, want 3", entries(c))
	}
	if n := c.Stats().Evictions; n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
	for _, i := range []int{0, 2, 3} {
		if val, ok := c.Get(keyOf(i), rows[i]); !ok || val != float64(i) {
			t.Fatalf("survivor %d: %v %v, want a hit", i, val, ok)
		}
	}
	if _, ok := c.Get(keyOf(1), rows[1]); ok {
		t.Fatal("evicted row 1 still hits")
	}
}

func TestInvalidateDropsOldGenerations(t *testing.T) {
	c := New(64, nil)
	row := []float64{1, 2}
	for gen := int64(1); gen <= 3; gen++ {
		c.Put(key("m", gen, row), row, float64(gen))
	}
	if n := c.Invalidate(3); n != 2 {
		t.Fatalf("Invalidate dropped %d, want 2", n)
	}
	if n := c.Stats().Invalidations; n != 2 {
		t.Fatalf("invalidations = %d", n)
	}
	// Generation 3 survives; 1 and 2 are gone.
	if val, ok := c.Get(key("m", 3, row), row); !ok || val != 3 {
		t.Fatalf("gen-3 Get: %v %v", val, ok)
	}
	for gen := int64(1); gen <= 2; gen++ {
		if _, ok := c.Get(key("m", gen, row), row); ok {
			t.Fatalf("gen-%d Get after invalidate hit", gen)
		}
	}

	// Two concurrent reloads can invalidate out of order: Invalidate(2)
	// arriving after Invalidate(3) must keep the live generation 3.
	if n := c.Invalidate(2); n != 0 {
		t.Fatalf("late Invalidate(2) dropped %d, want 0", n)
	}
	if val, ok := c.Get(key("m", 3, row), row); !ok || val != 3 {
		t.Fatalf("gen-3 Get after a late Invalidate(2): %v %v, want a hit", val, ok)
	}
}

// TestFillAfterInvalidate pins the reload-during-scoring race: a value
// scored under a generation that a reload has since invalidated must
// not re-enter the index when its Put lands late.
func TestFillAfterInvalidate(t *testing.T) {
	c := New(64, nil)
	row := []float64{7}
	k := key("m", 1, row)
	if _, ok := c.Get(k, row); ok {
		t.Fatal("empty cache hit")
	}
	if n := c.Invalidate(2); n != 0 {
		t.Fatalf("Invalidate dropped %d, want 0", n)
	}
	c.Put(k, row, 9.5)
	if entries(c) != 0 {
		t.Fatalf("Len = %d, want 0", entries(c))
	}
	if val, ok := c.Get(k, row); ok {
		t.Fatalf("Get after invalidated Put hit %v", val)
	}
}

// TestHashCollisionNeverServesWrongValue hand-builds two distinct rows
// under one Key (simulating a full 64-bit hash collision) and verifies
// the stored value is never served for the other row.
func TestHashCollisionNeverServesWrongValue(t *testing.T) {
	c := New(64, nil)
	rowA, rowB := []float64{1, 2}, []float64{3, 4}
	k := Key{Model: "m", Gen: 1, Hash: 12345} // same forged hash for both
	c.Put(k, rowA, 111)
	// Probing rowB under the same key must not hit rowA's value.
	if val, ok := c.Get(k, rowB); ok || val != 0 {
		t.Fatalf("collision Get: %v %v, want a miss", val, ok)
	}
	// Storing rowB displaces the collider.
	c.Put(k, rowB, 222)
	if n := c.Stats().Evictions; n != 1 || entries(c) != 1 {
		t.Fatalf("evictions = %d, Len = %d, want 1, 1 (displaced collider)", n, entries(c))
	}
	if val, ok := c.Get(k, rowB); !ok || val != 222 {
		t.Fatalf("rowB after Put: %v %v, want a hit on 222", val, ok)
	}
	if val, ok := c.Get(k, rowA); ok {
		t.Fatalf("displaced rowA still hits %v", val)
	}
}

// TestConcurrentSingleflight races Get/Put on one row: every goroutine
// that misses stores the same value, they all land on one entry, and
// the counters still balance.
func TestConcurrentSingleflight(t *testing.T) {
	c := New(1024, nil)
	row := []float64{1, 2, 3}
	k := key("m", 1, row)
	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			val, ok := c.Get(k, row)
			if !ok {
				c.Put(k, row, 77)
				return
			}
			if val != 77 {
				t.Errorf("hit %d: %v", g, val)
			}
		}(g)
	}
	wg.Wait()
	if entries(c) != 1 {
		t.Fatalf("Len = %d after racing one row, want 1", entries(c))
	}
	if val, ok := c.Get(k, row); !ok || val != 77 {
		t.Fatalf("final Get: %v %v, want a hit on 77", val, ok)
	}
	if st := c.Stats(); st.Hits+st.Misses != st.Lookups {
		t.Fatalf("hits+misses=%d != lookups=%d", st.Hits+st.Misses, st.Lookups)
	}
}

// TestLookupHitZeroAlloc pins the hit path at zero allocations: the
// whole point of the cache is to beat the batcher's per-request
// allocations, so a hit must cost a lock and a compare, nothing
// else.
func TestLookupHitZeroAlloc(t *testing.T) {
	c := New(64, nil)
	row := []float64{1, 2, 3, 4, 5, 6}
	c.Put(key("m", 1, row), row, 3.5)
	allocs := testing.AllocsPerRun(1000, func() {
		k := Key{Model: "m", Gen: 1, Hash: HashRow(row)}
		if val, ok := c.Get(k, row); !ok || val != 3.5 {
			panic(fmt.Sprintf("not a hit: %v %v", val, ok))
		}
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f/op, want 0", allocs)
	}
}

func TestHashRowProperties(t *testing.T) {
	base := []float64{0, 1.5, -3, 1e9, 0.25}
	h := HashRow(base)
	if h != HashRow(append([]float64(nil), base...)) {
		t.Fatal("equal rows hash differently")
	}
	// -0.0 and +0.0 compare equal, so they must hash equal.
	neg := append([]float64(nil), base...)
	neg[0] = math.Copysign(0, -1)
	if HashRow(neg) != h {
		t.Fatal("-0.0 and +0.0 hash differently")
	}
	// Any single-cell change alters the hash (bijection argument; the
	// fuzz target hammers this with arbitrary perturbations).
	for i := range base {
		mut := append([]float64(nil), base...)
		mut[i] += 1
		if HashRow(mut) == h {
			t.Fatalf("perturbing cell %d left the hash unchanged", i)
		}
	}
	// Length is folded in: a prefix never hashes like the full row.
	if HashRow(base[:4]) == h {
		t.Fatal("prefix hashes like full row")
	}
	// Order matters.
	swapped := append([]float64(nil), base...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if HashRow(swapped) == h {
		t.Fatal("swapped cells left the hash unchanged")
	}
}

// TestNewBoundsOccupancy pins the capacity as a hard bound: New(100)
// never holds more than 100 entries, whether the keys are real row
// hashes or hashes forged to share their low bits.
func TestNewBoundsOccupancy(t *testing.T) {
	for name, hashOf := range map[string]func(i int, row []float64) uint64{
		"row hash":   func(_ int, row []float64) uint64 { return HashRow(row) },
		"low bits":   func(i int, _ []float64) uint64 { return uint64(i) << 8 },
		"sequential": func(i int, _ []float64) uint64 { return uint64(i) },
	} {
		c := New(100, nil)
		for i := 0; i < 1000; i++ {
			row := []float64{float64(i)}
			c.Put(Key{Model: "m", Gen: 1, Hash: hashOf(i, row)}, row, 0)
			if n := entries(c); n > 100 {
				t.Fatalf("%s: Len = %d after %d Puts, want ≤ 100", name, n, i+1)
			}
		}
		if n, ev := entries(c), c.Stats().Evictions; n != 100 || ev != 900 {
			t.Fatalf("%s: Len = %d, evictions = %d after 1000 Puts, want 100, 900", name, n, ev)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with maxEntries 0 did not panic")
		}
	}()
	New(0, nil)
}

// refCache is a naive LRU over a slice (front = most recent) with the
// same contract as Cache: the oracle TestCacheMatchesReferenceLRU and
// FuzzCacheMatchesReference hold the slab implementation to.
type refCache struct {
	cap     int
	floor   int64
	entries []refEntry
	stats   Stats
}

// refEntry is one of refCache's entries.
type refEntry struct {
	key Key
	row []float64
	val float64
}

func (r *refCache) find(key Key) int {
	return slices.IndexFunc(r.entries, func(e refEntry) bool { return e.key == key })
}

// touch moves entry i to the front.
func (r *refCache) touch(i int) {
	e := r.entries[i]
	copy(r.entries[1:i+1], r.entries[:i])
	r.entries[0] = e
}

func (r *refCache) get(key Key, row []float64) (float64, bool) {
	r.stats.Lookups++
	if i := r.find(key); i >= 0 && slices.Equal(r.entries[i].row, row) {
		r.touch(i)
		r.stats.Hits++
		return r.entries[0].val, true
	}
	r.stats.Misses++
	return 0, false
}

func (r *refCache) put(key Key, row []float64, val float64) {
	if key.Gen < r.floor {
		return
	}
	if i := r.find(key); i >= 0 {
		if !slices.Equal(r.entries[i].row, row) {
			r.entries[i].row, r.entries[i].val = slices.Clone(row), val
			r.stats.Evictions++
		}
		r.touch(i)
		return
	}
	r.entries = slices.Insert(r.entries, 0, refEntry{key: key, row: slices.Clone(row), val: val})
	if len(r.entries) > r.cap {
		r.entries = r.entries[:r.cap]
		r.stats.Evictions++
	}
}

func (r *refCache) invalidate(keepGen int64) int {
	r.floor = max(r.floor, keepGen)
	n := len(r.entries)
	r.entries = slices.DeleteFunc(r.entries, func(e refEntry) bool { return e.key.Gen < keepGen })
	n -= len(r.entries)
	r.stats.Invalidations += int64(n)
	return n
}

// TestCacheMatchesReferenceLRU drives the cache and a naive reference
// LRU with the same seeded sequences of Get, Put and Invalidate and
// requires every answer, the entry count and all five counters to agree
// after every step. The sequences mix row widths (so recycled entries
// change width), forge hash collisions (few hashes shared by many rows,
// so equal keys carry different rows) and include Invalidate calls that
// arrive late, below the current floor.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, capacity := range []int{1, 3, 8, 32} {
		c, ref := New(capacity, nil), &refCache{cap: capacity}
		r := rand.New(rand.NewSource(int64(capacity)))
		pool := make([][]float64, 40)
		for i := range pool {
			pool[i] = make([]float64, 1+r.Intn(4))
			for j := range pool[i] {
				pool[i][j] = float64(r.Intn(3))
			}
		}
		models := []string{"lre", "nns"}
		for step := 0; step < 20000; step++ {
			i := r.Intn(len(pool))
			row := pool[i]
			hash := HashRow(row)
			if r.Intn(2) == 0 {
				hash = uint64(i % 5) // forged: many rows per hash
			}
			key := Key{Model: models[r.Intn(len(models))], Gen: ref.floor + int64(r.Intn(3)) - 1, Hash: hash}
			switch op := r.Intn(100); {
			case op == 0:
				keep := ref.floor + int64(r.Intn(3)) - 1
				if got, want := c.Invalidate(keep), ref.invalidate(keep); got != want {
					t.Fatalf("cap %d step %d: Invalidate(%d) dropped %d, reference %d", capacity, step, keep, got, want)
				}
			case op < 50:
				val := float64(r.Intn(1000))
				c.Put(key, row, val)
				ref.put(key, row, val)
			default:
				val, ok := c.Get(key, row)
				if wval, wok := ref.get(key, row); val != wval || ok != wok {
					t.Fatalf("cap %d step %d: Get(%+v, %v) = %v %v, reference %v %v", capacity, step, key, row, val, ok, wval, wok)
				}
			}
			if err := matchesRef(c, ref); err != nil {
				t.Fatalf("cap %d step %d: %v", capacity, step, err)
			}
		}
	}
}

// TestPutAtCapacityZeroAlloc pins the miss path of a full cache at zero
// allocations: storing a new row of the evicted entry's width reuses
// that entry, its list element and its row buffer.
func TestPutAtCapacityZeroAlloc(t *testing.T) {
	c := New(64, nil)
	row := []float64{1, 2, 3, 4, 5, 6}
	next := 0.0
	put := func() {
		row[0] = next
		next++
		c.Put(Key{Model: "m", Gen: 1, Hash: HashRow(row)}, row, next)
	}
	for range 64 {
		put()
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
		t.Fatalf("Put into a full cache allocates %.1f/op, want 0", allocs)
	}
	if n, ev := entries(c), c.Stats().Evictions; n != 64 || ev == 0 {
		t.Fatalf("%d entries, %d evictions; want 64 and some", n, ev)
	}
}

// TestRecycledRowExactWidth pins the stride rule: a row comes back at
// its own width whatever the cache's stride, and widening the stride
// carries every stored row over bit for bit.
func TestRecycledRowExactWidth(t *testing.T) {
	c := New(100, nil)
	widths := []int{2, 6, 1, 3, 6, 9, 4, 24, 21, 24}
	var stored [][]float64
	for i, w := range widths {
		row := make([]float64, w)
		for j := range row {
			row[j] = math.Float64frombits(uint64(i)<<32 | uint64(j)) // distinct bits per cell
		}
		c.Put(Key{Model: "m", Gen: 1, Hash: uint64(i)}, row, float64(i))
		stored = append(stored, row)
		if want := slices.Max(widths[:i+1]); c.stride != want {
			t.Fatalf("Put %d: stride %d, want the widest row so far, %d", i, c.stride, want)
		}
		for k, want := range stored {
			got := c.row(c.m[Key{Model: "m", Gen: 1, Hash: uint64(k)}])
			if len(got) != len(want) || !slices.EqualFunc(got, want, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Fatalf("after Put %d: row %d reads %v, want %v", i, k, got, want)
			}
		}
	}
}

// matchesRef holds c to ref: the entry count, the five counters, the
// slab's links and the LRU order. Walking the list from either end must
// visit every indexed entry exactly once, each under the key it is
// indexed by; the free list plus the listed slots must account for
// every slot ever handed out; and head to tail, the entries must be
// ref's, in ref's order, with its rows and values.
func matchesRef(c *Cache, ref *refCache) error {
	if st := c.Stats(); st != ref.stats {
		return fmt.Errorf("counters %+v, reference %+v", st, ref.stats)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.m)
	if n != len(ref.entries) {
		return fmt.Errorf("%d indexed, reference %d", n, len(ref.entries))
	}
	for k, i := range c.m {
		if c.slot(i).key != k {
			return fmt.Errorf("key %+v indexes slot %d, which holds %+v", k, i, c.slot(i).key)
		}
	}
	walk := func(from int32, step func(*slot) int32) (int, error) {
		seen := 0
		for i := from; i != none; i = step(c.slot(i)) {
			if seen++; seen > n {
				return seen, fmt.Errorf("list from slot %d runs past %d entries", from, n)
			}
			if j, ok := c.m[c.slot(i).key]; !ok || j != i {
				return seen, fmt.Errorf("listed slot %d is not indexed", i)
			}
		}
		return seen, nil
	}
	fwd, err := walk(c.root.next, func(s *slot) int32 { return s.next })
	if err != nil {
		return err
	}
	back, err := walk(c.root.prev, func(s *slot) int32 { return s.prev })
	if err != nil {
		return err
	}
	free := 0
	for i := c.free; i != none && free <= int(c.used); i = c.slot(i).next {
		free++
	}
	if fwd != n || back != n || free+n != int(c.used) {
		return fmt.Errorf("%d indexed, %d listed head to tail, %d tail to head, %d free of %d handed out",
			n, fwd, back, free, c.used)
	}
	i := c.root.next
	for k, e := range ref.entries {
		if s := c.slot(i); s.key != e.key || !slices.Equal(c.row(i), e.row) || s.val != e.val {
			return fmt.Errorf("LRU position %d holds %+v: %v = %v, reference %+v: %v = %v",
				k, s.key, c.row(i), s.val, e.key, e.row, e.val)
		}
		i = c.slot(i).next
	}
	return nil
}

// TestPutMixedWidthsZeroAlloc pins the fixed stride: once the cache is
// full and its stride has reached the widest row, a Put allocates
// nothing even when every row it stores has another width than the one
// it evicts (LR-B rows are 21 cells, NN-S and TREE-B rows 24). The odd
// capacity, across two chunks, makes each evicted row the other width.
func TestPutMixedWidthsZeroAlloc(t *testing.T) {
	const capacity = 65
	c := New(capacity, nil)
	narrow, wide := make([]float64, 21), make([]float64, 24)
	next := 0
	put := func() {
		row := narrow
		if next%2 == 1 {
			row = wide
		}
		row[0] = float64(next)
		next++
		c.Put(Key{Model: "m", Gen: 1, Hash: HashRow(row)}, row, float64(next))
	}
	for range capacity {
		put()
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
		t.Fatalf("a mixed-width Put into a full cache allocates %.1f/op, want 0", allocs)
	}
	if n, ev := entries(c), c.Stats().Evictions; n != capacity || ev == 0 {
		t.Fatalf("%d entries, %d evictions; want %d and some", n, ev, capacity)
	}
}

// TestRefillAfterInvalidateZeroAlloc pins the reload path: Invalidate
// frees its slots, and the new generation refills them to capacity
// without an allocation.
func TestRefillAfterInvalidateZeroAlloc(t *testing.T) {
	const capacity = 200
	c := New(capacity, nil)
	row := make([]float64, 24)
	fill := func(gen int64) {
		for i := range capacity {
			row[0] = float64(i)
			c.Put(Key{Model: "m", Gen: gen, Hash: HashRow(row)}, row, float64(i))
		}
	}
	gen := int64(1)
	fill(gen)
	allocs := testing.AllocsPerRun(20, func() {
		gen++
		if n := c.Invalidate(gen); n != capacity {
			panic(fmt.Sprintf("Invalidate dropped %d, want %d", n, capacity))
		}
		fill(gen)
	})
	if allocs != 0 {
		t.Fatalf("invalidating and refilling %d entries allocates %.1f times, want 0", capacity, allocs)
	}
	if n, ev := entries(c), c.Stats().Evictions; n != capacity || ev != 0 {
		t.Fatalf("%d entries, %d evictions after the refills; want %d and 0", n, ev, capacity)
	}
}

// TestCacheBytesPerEntry pins what an entry costs resident: the heap a
// full 2048-entry cache holds, after a churn of mixed 21- and 24-wide
// rows, divided by its entries. A slot, its row at the stride and its
// map entry measured 334 B per entry; the list-and-map cache it
// replaced, with an entry object, a list element and an exact-width
// row per entry, measured 374 B.
func TestCacheBytesPerEntry(t *testing.T) {
	const n = 2048
	narrow, wide := make([]float64, 21), make([]float64, 24)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(n, nil)
	for i := range 4 * n {
		row := narrow
		if i%2 == 1 {
			row = wide
		}
		row[0] = float64(i)
		c.Put(Key{Model: "m", Gen: 1, Hash: HashRow(row)}, row, float64(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(c)
	t.Logf("%.0f B per entry", perEntry)
	if entries(c) != n || perEntry > 355 {
		t.Fatalf("%d entries hold %.0f B each, want %d at <= 355", entries(c), perEntry, n)
	}
}
