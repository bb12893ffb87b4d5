package predcache

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func testCache(t *testing.T, entries int) (*Cache, *Metrics) {
	t.Helper()
	met := NewMetrics(nil)
	return New(Config{MaxEntries: entries, Metrics: met}), met
}

func key(model string, gen int64, row []float64) Key {
	return Key{Model: model, Gen: gen, Hash: HashRow(row)}
}

func TestLookupMissFillHit(t *testing.T) {
	c, met := testCache(t, 64)
	row := []float64{1, 2.5, 0, 1}
	k := key("m", 1, row)

	_, f, outcome := c.Lookup(k, row)
	if outcome != Lead || f == nil {
		t.Fatalf("first lookup: %v, want Lead", outcome)
	}
	c.Fill(f, 42.5)

	val, fl, outcome := c.Lookup(k, row)
	if outcome != Hit || fl != nil || val != 42.5 {
		t.Fatalf("second lookup: val=%v fl=%v outcome=%v, want Hit 42.5", val, fl, outcome)
	}
	if met.Lookups.Value() != 2 || met.Hits.Value() != 1 || met.Misses.Value() != 1 {
		t.Fatalf("counters: lookups=%d hits=%d misses=%d", met.Lookups.Value(), met.Hits.Value(), met.Misses.Value())
	}
	// A resolved flight's Wait returns immediately with the value.
	if v, ok, err := f.Wait(context.Background()); err != nil || !ok || v != 42.5 {
		t.Fatalf("Wait on filled flight: %v %v %v", v, ok, err)
	}
}

// TestLookupCopiesRow pins the Lead contract that makes encode-buffer
// reuse safe: the caller may overwrite its row buffer immediately after
// Lookup returns.
func TestLookupCopiesRow(t *testing.T) {
	c, _ := testCache(t, 64)
	buf := []float64{1, 2}
	k := key("m", 1, buf)
	_, f, _ := c.Lookup(k, buf)
	buf[0], buf[1] = 99, 99 // clobber the caller's buffer
	c.Fill(f, 7)
	if val, _, outcome := c.Lookup(k, []float64{1, 2}); outcome != Hit || val != 7 {
		t.Fatalf("lookup after buffer clobber: %v %v, want Hit 7", val, outcome)
	}
}

func TestCoalesceWaitsForLeader(t *testing.T) {
	c, met := testCache(t, 64)
	row := []float64{3, 1, 4}
	k := key("m", 1, row)

	_, leader, outcome := c.Lookup(k, row)
	if outcome != Lead {
		t.Fatalf("leader outcome: %v", outcome)
	}
	_, waiter, outcome := c.Lookup(k, row)
	if outcome != Coalesce {
		t.Fatalf("waiter outcome: %v", outcome)
	}
	if waiter != leader {
		t.Fatal("coalesced lookup returned a different flight")
	}

	got := make(chan float64, 1)
	go func() {
		v, ok, err := waiter.Wait(context.Background())
		if err != nil || !ok {
			t.Errorf("Wait: ok=%v err=%v", ok, err)
		}
		got <- v
	}()
	// The waiter must be blocked until Fill.
	select {
	case v := <-got:
		t.Fatalf("waiter resolved before Fill: %v", v)
	case <-time.After(20 * time.Millisecond):
	}
	c.Fill(leader, 2.71828)
	select {
	case v := <-got:
		if v != 2.71828 {
			t.Fatalf("waiter value: %v", v)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke")
	}
	if met.Coalesced.Value() != 1 || met.Misses.Value() != 2 {
		t.Fatalf("coalesced=%d misses=%d, want 1, 2", met.Coalesced.Value(), met.Misses.Value())
	}
}

func TestAbandonWakesWaitersWithNotOK(t *testing.T) {
	c, _ := testCache(t, 64)
	row := []float64{5}
	k := key("m", 1, row)
	_, leader, _ := c.Lookup(k, row)
	_, waiter, outcome := c.Lookup(k, row)
	if outcome != Coalesce {
		t.Fatalf("outcome: %v", outcome)
	}
	c.Abandon(leader)
	if _, ok, err := waiter.Wait(context.Background()); ok || err != nil {
		t.Fatalf("Wait after Abandon: ok=%v err=%v, want ok=false", ok, err)
	}
	// The abandoned entry left the index: the next lookup leads afresh.
	if _, _, outcome := c.Lookup(k, row); outcome != Lead {
		t.Fatalf("lookup after Abandon: %v, want Lead", outcome)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after re-lead: %d", c.Len())
	}
}

func TestWaitHonorsContext(t *testing.T) {
	c, _ := testCache(t, 64)
	row := []float64{6}
	_, f, _ := c.Lookup(key("m", 1, row), row)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := f.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait with cancelled ctx: %v", err)
	}
	c.Abandon(f) // leave no pending flight behind
}

func TestLRUEviction(t *testing.T) {
	// Single shard so eviction order is global and deterministic.
	met := NewMetrics(nil)
	c := New(Config{MaxEntries: 3, Shards: 1, Metrics: met})

	rows := [][]float64{{1}, {2}, {3}, {4}}
	for i, r := range rows[:3] {
		_, f, _ := c.Lookup(key("m", 1, r), r)
		c.Fill(f, float64(i))
	}
	// Touch row 0 so row 1 becomes the LRU victim.
	if _, _, outcome := c.Lookup(key("m", 1, rows[0]), rows[0]); outcome != Hit {
		t.Fatalf("warm lookup: %v", outcome)
	}
	// Inserting a 4th entry evicts exactly one resolved entry: row 1.
	_, f, _ := c.Lookup(key("m", 1, rows[3]), rows[3])
	c.Fill(f, 3)
	if c.Len() != 3 {
		t.Fatalf("Len after eviction: %d", c.Len())
	}
	if met.Evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", met.Evictions.Value())
	}
	// rows[0], rows[2] and rows[3] survived.
	for _, r := range [][]float64{rows[0], rows[2], rows[3]} {
		if _, _, outcome := c.Lookup(key("m", 1, r), r); outcome != Hit {
			t.Fatalf("survivor %v should Hit, got %v", r, outcome)
		}
	}
	// Probing the victim leads a fresh flight (which itself displaces the
	// next LRU entry — probes insert).
	_, f, outcome := c.Lookup(key("m", 1, rows[1]), rows[1])
	if outcome != Lead {
		t.Fatalf("evicted row should Lead, got %v", outcome)
	}
	c.Abandon(f)
}

func TestPendingEntriesAreNotEvicted(t *testing.T) {
	c := New(Config{MaxEntries: 1, Shards: 1, Metrics: NewMetrics(nil)})
	rowA, rowB := []float64{1}, []float64{2}
	_, fa, _ := c.Lookup(key("m", 1, rowA), rowA)
	// Over capacity with only a pending entry: insertion must not evict
	// the pending flight (its waiters hold it); occupancy overflows.
	_, fb, _ := c.Lookup(key("m", 1, rowB), rowB)
	if c.Len() != 2 {
		t.Fatalf("Len with two pending: %d", c.Len())
	}
	c.Fill(fa, 1)
	c.Fill(fb, 2)
	// Next insert sees two resolved entries over a cap of 1 and evicts
	// down to capacity.
	rowC := []float64{3}
	_, fc, _ := c.Lookup(key("m", 1, rowC), rowC)
	c.Fill(fc, 3)
	if c.Len() != 1 {
		t.Fatalf("Len after resolving over-capacity shard: %d", c.Len())
	}
}

func TestInvalidateDropsOldGenerations(t *testing.T) {
	c, met := testCache(t, 64)
	row := []float64{1, 2}
	for gen := int64(1); gen <= 3; gen++ {
		_, f, _ := c.Lookup(key("m", gen, row), row)
		c.Fill(f, float64(gen))
	}
	if n := c.Invalidate(3); n != 2 {
		t.Fatalf("Invalidate dropped %d, want 2", n)
	}
	if met.Invalidations.Value() != 2 {
		t.Fatalf("invalidations = %d", met.Invalidations.Value())
	}
	// Generation 3 survives; 1 and 2 are gone.
	if val, _, outcome := c.Lookup(key("m", 3, row), row); outcome != Hit || val != 3 {
		t.Fatalf("gen-3 lookup: %v %v", val, outcome)
	}
	for gen := int64(1); gen <= 2; gen++ {
		_, f, outcome := c.Lookup(key("m", gen, row), row)
		if outcome != Lead {
			t.Fatalf("gen-%d lookup after invalidate: %v, want Lead", gen, outcome)
		}
		c.Abandon(f)
	}

	// Two concurrent reloads can invalidate out of order: Invalidate(2)
	// arriving after Invalidate(3) must keep the live generation 3.
	if n := c.Invalidate(2); n != 0 {
		t.Fatalf("late Invalidate(2) dropped %d, want 0", n)
	}
	if val, _, outcome := c.Lookup(key("m", 3, row), row); outcome != Hit || val != 3 {
		t.Fatalf("gen-3 lookup after a late Invalidate(2): %v %v, want a hit", val, outcome)
	}
}

// TestFillAfterInvalidate pins the reload-during-fill race: an entry
// invalidated while its leader is still scoring must deliver the value
// to waiters (it was computed under the old generation they asked for)
// without re-entering the index.
func TestFillAfterInvalidate(t *testing.T) {
	c, _ := testCache(t, 64)
	row := []float64{7}
	k := key("m", 1, row)
	_, leader, _ := c.Lookup(k, row)
	_, waiter, outcome := c.Lookup(k, row)
	if outcome != Coalesce {
		t.Fatalf("outcome: %v", outcome)
	}
	if n := c.Invalidate(2); n != 1 {
		t.Fatalf("Invalidate dropped %d, want 1", n)
	}
	c.Fill(leader, 9.5)
	if v, ok, err := waiter.Wait(context.Background()); err != nil || !ok || v != 9.5 {
		t.Fatalf("waiter after invalidate+fill: %v %v %v", v, ok, err)
	}
	// The filled value did not re-enter the index.
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
	if _, f, outcome := c.Lookup(k, row); outcome != Lead {
		t.Fatalf("lookup after invalidated fill: %v, want Lead", outcome)
	} else {
		c.Abandon(f)
	}
}

// TestHashCollisionNeverServesWrongValue hand-builds two distinct rows
// under one Key (simulating a full 64-bit hash collision) and verifies
// the stored value is never served for the other row.
func TestHashCollisionNeverServesWrongValue(t *testing.T) {
	c, met := testCache(t, 64)
	rowA, rowB := []float64{1, 2}, []float64{3, 4}
	k := Key{Model: "m", Gen: 1, Hash: 12345} // same forged hash for both
	_, fa, _ := c.Lookup(k, rowA)
	c.Fill(fa, 111)
	// Probing rowB under the same key must not hit rowA's value: the
	// collider is evicted and rowB leads.
	val, fb, outcome := c.Lookup(k, rowB)
	if outcome != Lead || val != 0 {
		t.Fatalf("collision lookup: val=%v outcome=%v, want Lead", val, outcome)
	}
	if met.Evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1 (displaced collider)", met.Evictions.Value())
	}
	c.Fill(fb, 222)
	if val, _, outcome := c.Lookup(k, rowB); outcome != Hit || val != 222 {
		t.Fatalf("rowB after fill: %v %v", val, outcome)
	}
}

func TestConcurrentSingleflight(t *testing.T) {
	c, met := testCache(t, 1024)
	row := []float64{1, 2, 3}
	k := key("m", 1, row)
	const goroutines = 32
	var scored sync.Map
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			val, f, outcome := c.Lookup(k, row)
			switch outcome {
			case Lead:
				scored.Store(g, true)
				c.Fill(f, 77)
			case Coalesce:
				v, ok, err := f.Wait(context.Background())
				if err != nil || !ok || v != 77 {
					t.Errorf("waiter %d: %v %v %v", g, v, ok, err)
				}
			case Hit:
				if val != 77 {
					t.Errorf("hit %d: %v", g, val)
				}
			}
		}(g)
	}
	wg.Wait()
	leaders := 0
	scored.Range(func(_, _ any) bool { leaders++; return true })
	if leaders != 1 {
		t.Fatalf("%d goroutines led for one row, want exactly 1", leaders)
	}
	if got := met.Hits.Value() + met.Misses.Value(); got != met.Lookups.Value() {
		t.Fatalf("hits+misses=%d != lookups=%d", got, met.Lookups.Value())
	}
}

// TestLookupHitZeroAlloc pins the resolved-hit path at zero allocations:
// the whole point of the cache is to beat the batcher's per-request
// allocations, so a hit must cost a shard lock and a compare, nothing
// else.
func TestLookupHitZeroAlloc(t *testing.T) {
	c, _ := testCache(t, 64)
	row := []float64{1, 2, 3, 4, 5, 6}
	k := key("m", 1, row)
	_, f, _ := c.Lookup(k, row)
	c.Fill(f, 3.5)
	allocs := testing.AllocsPerRun(1000, func() {
		k := Key{Model: "m", Gen: 1, Hash: HashRow(row)}
		if val, _, outcome := c.Lookup(k, row); outcome != Hit || val != 3.5 {
			panic(fmt.Sprintf("not a hit: %v %v", val, outcome))
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

func TestNewRoundsShardsAndSplitsCapacity(t *testing.T) {
	c := New(Config{MaxEntries: 100, Shards: 5})
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8 (next power of two above 5)", len(c.shards))
	}
	if c.shards[0].cap != 13 { // ceil(100/8)
		t.Fatalf("per-shard cap = %d, want 13", c.shards[0].cap)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with MaxEntries 0 did not panic")
		}
	}()
	New(Config{})
}
