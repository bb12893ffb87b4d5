package predcache

import (
	"fmt"
	"math"
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
