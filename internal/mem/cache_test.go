package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache(t *testing.T) *Cache {
	t.Helper()
	c, err := NewCache(CacheConfig{SizeKB: 1, LineBytes: 64, Assoc: 2, LatencyCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c // 16 lines, 8 sets, 2-way
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{SizeKB: 16, LineBytes: 32, Assoc: 4, LatencyCycles: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []CacheConfig{
		{SizeKB: 16, LineBytes: 48, Assoc: 4, LatencyCycles: 1},   // non-pow2 line
		{SizeKB: 1, LineBytes: 1, Assoc: 4, LatencyCycles: 1},     // 1-byte line
		{SizeKB: 16, LineBytes: 32, Assoc: 0, LatencyCycles: 1},   // zero assoc
		{SizeKB: 16, LineBytes: 32, Assoc: 4, LatencyCycles: 0},   // zero latency
		{SizeKB: 16, LineBytes: 32, Assoc: 3, LatencyCycles: 1},   // 512 lines %3 != 0... actually 512/3 no
		{SizeKB: 3, LineBytes: 32, Assoc: 4, LatencyCycles: 1},    // 96 lines / 4 = 24 sets, not pow2
		{SizeKB: 16, LineBytes: 32, Assoc: 512, LatencyCycles: 0}, // bad latency
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v): want error", i, c)
		}
	}
	disabled := CacheConfig{}
	if err := disabled.Validate(); err != nil {
		t.Fatal("disabled level should validate")
	}
	if disabled.Enabled() {
		t.Fatal("zero-size cache should be disabled")
	}
}

func TestNewCacheRejectsDisabled(t *testing.T) {
	if _, err := NewCache(CacheConfig{}); err == nil {
		t.Fatal("want error")
	}
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := smallCache(t)
	if c.Access(0x1000) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x1010) {
		t.Fatal("same-line access should hit")
	}
	if c.Accesses() != 3 || c.Misses() != 1 {
		t.Fatalf("stats %d/%d", c.Misses(), c.Accesses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache(t) // 8 sets, 2-way, 64B lines
	// Three addresses mapping to set 0: tags differ by 8 lines * 64B = 512B.
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a) // miss, set0 = [a]
	c.Access(b) // miss, set0 = [b, a]
	c.Access(a) // hit, set0 = [a, b]
	c.Access(d) // miss, evicts LRU=b → [d, a]
	if !c.Access(a) {
		t.Fatal("a should have survived (was MRU)")
	}
	if c.Access(b) {
		t.Fatal("b should have been evicted")
	}
}

func TestCacheFullyAssociative(t *testing.T) {
	c, err := NewCache(CacheConfig{SizeKB: 1, LineBytes: 64, Assoc: 16, LatencyCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 16 lines, 1 set: any 16 distinct lines all fit.
	for i := uint64(0); i < 16; i++ {
		c.Access(i * 64)
	}
	for i := uint64(0); i < 16; i++ {
		if !c.Access(i * 64) {
			t.Fatalf("line %d evicted in fully associative cache", i)
		}
	}
}

func TestCacheWorkingSetFitsVsSpills(t *testing.T) {
	// A working set equal to the cache hits after warm-up; double the
	// working set with a direct sweep thrashes.
	fit, _ := NewCache(CacheConfig{SizeKB: 4, LineBytes: 64, Assoc: 4, LatencyCycles: 1})
	lines := uint64(4 * 1024 / 64)
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < lines; i++ {
			fit.Access(i * 64)
		}
	}
	// After warm-up, passes 2-3 are all hits: misses == lines.
	if fit.Misses() != lines {
		t.Fatalf("fitting working set missed %d times, want %d", fit.Misses(), lines)
	}
	spill, _ := NewCache(CacheConfig{SizeKB: 4, LineBytes: 64, Assoc: 4, LatencyCycles: 1})
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < 2*lines; i++ {
			spill.Access(i * 64)
		}
	}
	// Cyclic sweep of 2× capacity under LRU misses every time.
	if spill.MissRate() < 0.99 {
		t.Fatalf("spilling working set miss rate %.3f, want ~1", spill.MissRate())
	}
}

func TestLargerCacheNeverWorseOnRandomStream(t *testing.T) {
	// Inclusion property check: a 2× cache (same line, same assoc per set
	// count scaled) should not miss more on any stream.
	gen := func(seed int64) []uint64 {
		r := rand.New(rand.NewSource(seed))
		addrs := make([]uint64, 20000)
		for i := range addrs {
			addrs[i] = uint64(r.Intn(1 << 16))
		}
		return addrs
	}
	small, _ := NewCache(CacheConfig{SizeKB: 8, LineBytes: 64, Assoc: 4, LatencyCycles: 1})
	big, _ := NewCache(CacheConfig{SizeKB: 32, LineBytes: 64, Assoc: 4, LatencyCycles: 1})
	for _, a := range gen(3) {
		small.Access(a)
		big.Access(a)
	}
	if big.Misses() > small.Misses() {
		t.Fatalf("bigger cache missed more: %d vs %d", big.Misses(), small.Misses())
	}
}

func TestCacheReset(t *testing.T) {
	c := smallCache(t)
	c.Access(0x40)
	c.Reset()
	if c.Accesses() != 0 || c.Misses() != 0 {
		t.Fatal("reset did not clear stats")
	}
	if c.Access(0x40) {
		t.Fatal("reset did not clear contents")
	}
}

func TestMissRateZeroBeforeAccess(t *testing.T) {
	c := smallCache(t)
	if c.MissRate() != 0 {
		t.Fatal("miss rate before any access should be 0")
	}
}

// Property: hits + misses == accesses, and re-access of the most recent
// address always hits.
func TestCacheInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		c, err := NewCache(CacheConfig{SizeKB: 2, LineBytes: 32, Assoc: 2, LatencyCycles: 1})
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		var last uint64
		for i := 0; i < 500; i++ {
			last = uint64(r.Intn(1 << 14))
			c.Access(last)
		}
		if !c.Access(last) {
			return false
		}
		return c.Accesses() == 501
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// refCache is the naive reference LRU: one most-recently-used-first list
// of line tags per set, grown on fill and cut at the associativity.
type refCache struct {
	sets             [][]uint64
	lineBits         uint
	assoc            int
	accesses, misses uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	r := &refCache{sets: make([][]uint64, cfg.SizeKB*1024/cfg.LineBytes/cfg.Assoc), assoc: cfg.Assoc}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		r.lineBits++
	}
	return r
}

func (r *refCache) install(addr uint64) bool {
	tag := addr >> r.lineBits
	s := tag % uint64(len(r.sets))
	set := r.sets[s]
	hit := false
	for w, t := range set {
		if t == tag {
			set = append(set[:w], set[w+1:]...)
			hit = true
			break
		}
	}
	set = append([]uint64{tag}, set...)
	if len(set) > r.assoc {
		set = set[:r.assoc]
	}
	r.sets[s] = set
	return hit
}

func (r *refCache) access(addr uint64) bool {
	r.accesses++
	hit := r.install(addr)
	if !hit {
		r.misses++
	}
	return hit
}

func (r *refCache) reset() {
	for s := range r.sets {
		r.sets[s] = nil
	}
	r.accesses, r.misses = 0, 0
}

// TestCacheMatchesReferenceLRU drives Cache and the reference with the
// same random stream of accesses, installs and resets over direct-mapped,
// 4-way, 8-way and fully associative geometries, and checks every
// outcome and counter step by step. The addresses span a few times each
// cache's capacity, so hits, evictions and refills all occur.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{SizeKB: 1, LineBytes: 32, Assoc: 1, LatencyCycles: 1},
		{SizeKB: 2, LineBytes: 64, Assoc: 4, LatencyCycles: 1},
		{SizeKB: 4, LineBytes: 32, Assoc: 8, LatencyCycles: 1},
		{SizeKB: 1, LineBytes: 64, Assoc: 16, LatencyCycles: 1}, // one set
	} {
		c, err := NewCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCache(cfg)
		r := rand.New(rand.NewSource(int64(cfg.Assoc)))
		span := 4 * cfg.SizeKB * 1024
		for step := 0; step < 50000; step++ {
			addr := uint64(r.Intn(span))
			switch op := r.Intn(1000); {
			case op == 0:
				c.Reset()
				ref.reset()
			case op < 200:
				if got, want := c.Install(addr), ref.install(addr); got != want {
					t.Fatalf("%+v step %d: Install(%#x) = %v, reference %v", cfg, step, addr, got, want)
				}
			default:
				if got, want := c.Access(addr), ref.access(addr); got != want {
					t.Fatalf("%+v step %d: Access(%#x) = %v, reference %v", cfg, step, addr, got, want)
				}
			}
			if c.Accesses() != ref.accesses || c.Misses() != ref.misses {
				t.Fatalf("%+v step %d: %d accesses %d misses, reference %d and %d",
					cfg, step, c.Accesses(), c.Misses(), ref.accesses, ref.misses)
			}
		}
	}
}

// TestNewCacheAllocs pins the flat layout: the 8 MB, 256 B-line, 8-way L3
// of Table 1 has 4096 sets, and building it takes the Cache and its one
// line array, not a slice per set.
func TestNewCacheAllocs(t *testing.T) {
	cfg := CacheConfig{SizeKB: 8192, LineBytes: 256, Assoc: 8, LatencyCycles: 40}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewCache(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("NewCache made %.0f allocations, want at most 2", allocs)
	}
}
