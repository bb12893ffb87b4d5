package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"perfpred/internal/core"
	"perfpred/internal/dataset"
	"perfpred/internal/faultinject"
)

// cachedPredict runs raw rows through the handler's path after resolve
// — encode into ws, then the cache — for m at generation gen. The
// returned predictions live in ws until its next use.
func cachedPredict(s *Server, ws *rowScratch, m *Model, gen int64, raw ...[]dataset.Value) ([]float64, error) {
	if cap(ws.out) < len(raw) {
		ws.out = make([]float64, len(raw))
	}
	out := ws.out[:len(raw)]
	rows, err := m.Pred.Encoder().EncodeRows(&ws.enc, raw)
	if err == nil {
		err = s.predictInto(context.Background(), ws, m, gen, rows, out)
	}
	return out, err
}

// trainModelSeed trains like trainModel but with a caller-chosen seed,
// so a retrained artifact genuinely predicts differently.
func trainModelSeed(t testing.TB, kind core.ModelKind, d *dataset.Dataset, seed int64) *core.Predictor {
	t.Helper()
	p, err := core.Train(context.Background(), kind, d, core.TrainConfig{Seed: seed, Workers: 2, EpochScale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCachedServingBitIdentical compares cached serving against the
// model's own offline scalar path on repeated rows: the first request
// misses and scores, every repeat hits, and all of them must be exactly
// the offline value.
func TestCachedServingBitIdentical(t *testing.T) {
	s, d, _ := newTestServer(t)
	m, _, _ := s.Registry().Resolve("nns")
	for i := 0; i < 8; i++ {
		want, err := m.Pred.Predict(d.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			out, err := cachedPredict(s, &rowScratch{}, m, s.reg.Generation(), d.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != want {
				t.Fatalf("row %d rep %d: cached %v != offline %v", i, rep, out[0], want)
			}
		}
	}
	cs := s.Report().Cache
	// At least the 2 repeats of each row hit; the synthetic dataset may
	// also contain duplicate design points, which hit on first sight.
	if cs.Hits < 16 {
		t.Fatalf("hits = %d, want ≥ 16 (2 repeats × 8 rows)", cs.Hits)
	}
	if cs.Lookups != cs.Hits+cs.Misses {
		t.Fatalf("lookups=%d != hits+misses=%d", cs.Lookups, cs.Hits+cs.Misses)
	}
}

// TestCacheMixedHitMissBatch posts a batch body that is part cached,
// part fresh, part duplicate-within-the-batch, and requires every
// position to match offline scoring — the partial-hit fill path.
func TestCacheMixedHitMissBatch(t *testing.T) {
	s, d, _ := newTestServer(t)
	m, _, _ := s.Registry().Resolve("lre")
	gen := s.reg.Generation()

	// Warm row 0 into the cache.
	if _, err := cachedPredict(s, &rowScratch{}, m, gen, d.Row(0)); err != nil {
		t.Fatal(err)
	}

	before := s.Report()

	// hit, fresh, duplicate-of-fresh, hit, another fresh
	rows := [][]dataset.Value{d.Row(0), d.Row(1), d.Row(1), d.Row(0), d.Row(2)}
	out, err := cachedPredict(s, &rowScratch{}, m, gen, rows...)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		want, err := m.Pred.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("position %d: %v != offline %v", i, out[i], want)
		}
	}
	// Positions 0 and 3 hit; 1, 2 and 4 miss, and each miss is scored.
	after := s.Report()
	hits, misses, preds := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses, after.Predictions-before.Predictions
	if hits != 2 || misses != 3 || preds != 3 {
		t.Fatalf("hits=%d misses=%d predictions=%d, want 2, 3, 3", hits, misses, preds)
	}
}

// TestCacheInvalidationOnReload retrains an artifact in place, reloads,
// and requires the daemon to serve the NEW model's value — a cached
// value from the previous generation must be unreachable.
func TestCacheInvalidationOnReload(t *testing.T) {
	s, d, dir := newTestServer(t)
	h := s.Handler()
	body := map[string]any{"model": "nns", "row": rowJSON(d, 0)}

	w := postPredict(t, h, body)
	if w.Code != 200 {
		t.Fatalf("warm predict: %d %s", w.Code, w.Body)
	}
	var before PredictResponse
	mustDecode(t, w.Body.Bytes(), &before)

	// Same request again: a cache hit, identical bits.
	w = postPredict(t, h, body)
	var again PredictResponse
	mustDecode(t, w.Body.Bytes(), &again)
	if *again.Prediction != *before.Prediction {
		t.Fatalf("repeat diverged: %v != %v", *again.Prediction, *before.Prediction)
	}

	// Retrain nns with a different seed and swap the artifact on disk.
	retrained := trainModelSeed(t, core.NNS, d, 99)
	saveModel(t, dir, "nns", retrained)
	want, err := retrained.Predict(d.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	if want == *before.Prediction {
		t.Fatal("retrained model predicts identically; test has no teeth")
	}
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}

	// The daemon must now serve the retrained value, not the cached one.
	w = postPredict(t, h, body)
	if w.Code != 200 {
		t.Fatalf("post-reload predict: %d %s", w.Code, w.Body)
	}
	var after PredictResponse
	mustDecode(t, w.Body.Bytes(), &after)
	if *after.Prediction != want {
		t.Fatalf("post-reload served %v, want retrained %v (stale cache?)", *after.Prediction, want)
	}
	if inv := s.Report().Cache.Invalidations; inv < 1 {
		t.Fatalf("invalidations = %d, want ≥ 1", inv)
	}
}

// TestCacheLookupStallPastDeadline arms the serve.cache_lookup fault
// point with a stall on every second lookup that outlives the request
// deadline: the stalled request answers 504 without probing the cache,
// the fault counts once, and the cache's accounting still balances.
func TestCacheLookupStallPastDeadline(t *testing.T) {
	inj := faultinject.New(map[faultinject.Point]faultinject.Plan{
		faultinject.ServeCacheLookup: {Every: 2, Latency: time.Minute},
	})
	restore := faultinject.Activate(inj)
	defer restore()

	d := synthDataset(t, 64, 6)
	dir := t.TempDir()
	saveModel(t, dir, "nns", trainModel(t, core.NNS, d))
	s, err := New(Config{ModelsDir: dir, RequestTimeout: 50 * time.Millisecond, Batcher: BatcherConfig{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body := map[string]any{"model": "nns", "row": rowJSON(d, 0)}
	for i, want := range []int{http.StatusOK, http.StatusGatewayTimeout, http.StatusOK} {
		if w := postPredict(t, h, body); w.Code != want {
			t.Fatalf("request %d: %d %s, want %d", i, w.Code, w.Body, want)
		}
	}
	rep := s.Report()
	if rep.FaultsInjected != 1 {
		t.Fatalf("faults_injected = %d, want 1", rep.FaultsInjected)
	}
	if c := rep.Cache; c.Lookups != 2 || c.Hits+c.Misses != c.Lookups {
		t.Fatalf("cache hits %d + misses %d vs lookups %d, want 2 balanced lookups", c.Hits, c.Misses, c.Lookups)
	}
	if st := inj.Stats()[faultinject.ServeCacheLookup.String()]; st.Fires != 1 {
		t.Fatalf("cache_lookup fires = %d, want 1", st.Fires)
	}
}

// TestCachedPredictHitZeroAlloc pins the all-hits request path —
// encode into the pooled scratch, then the cache — at zero allocations,
// same discipline as the kernel and batcher pins: the cache exists to be
// cheaper than scoring, so a hit must not pay the allocator.
func TestCachedPredictHitZeroAlloc(t *testing.T) {
	s, d, _ := newTestServer(t)
	m, _, _ := s.Registry().Resolve("lre")
	gen, ws, rows := s.reg.Generation(), &rowScratch{}, [][]dataset.Value{d.Row(0), d.Row(1)}
	// Warm both rows to resolved entries.
	if _, err := cachedPredict(s, ws, m, gen, rows...); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := cachedPredict(s, ws, m, gen, rows...); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached hit path allocates %.1f/op, want 0", allocs)
	}
}

// TestCachedPredictMissZeroAlloc pins the miss path of a full cache at
// zero allocations, the path an all-unique sweep takes for every row:
// the probe misses, the batcher scores the row through the scratch's own
// request and miss slice, and the Put recycles the evicted entry.
func TestCachedPredictMissZeroAlloc(t *testing.T) {
	s, d, _ := newTestServer(t)
	m, _, _ := s.Registry().Resolve("nns")
	gen, ws := s.reg.Generation(), &rowScratch{}
	// One encoded row whose first cell counts up: every call is a row the
	// cache has never seen.
	rows := encodeRows(t, m, [][]dataset.Value{d.Row(0)})
	out := make([]float64, 1)
	next := 0.0
	miss := func() {
		rows[0][0] = next
		next++
		if err := s.predictInto(context.Background(), ws, m, gen, rows, out); err != nil {
			panic(err)
		}
	}
	for range DefaultCacheEntries {
		miss()
	}
	before := s.Report().Cache
	allocs := testing.AllocsPerRun(1000, miss)
	after := s.Report().Cache
	if hits, ev := after.Hits-before.Hits, after.Evictions-before.Evictions; hits != 0 || ev != 1001 {
		t.Fatalf("%d hits, %d evictions over 1001 calls; want 0 and 1001", hits, ev)
	}
	if !raceEnabled && allocs != 0 {
		t.Fatalf("cached miss path allocates %.1f/op, want 0", allocs)
	}
}

func mustDecode(t testing.TB, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
}

// BenchmarkCachedPredict measures the duplicate-heavy serving path after
// resolve: every iteration encodes the row and is a resolved cache hit.
// Compare against BenchmarkUncachedPredict (the same encode, then the
// micro-batcher) in BENCH_8.json. `make bench-diff` holds each of the
// two within 4× of its own committed ns/op and fails any rise in
// allocs/op: the hit path is pinned at 0, and the uncached path, at 0
// since its request moved into the caller's scratch, still reads 4 in
// BENCH_8.json. No gate checks the ratio between them.
func BenchmarkCachedPredict(b *testing.B) {
	s, d, _ := newTestServer(b)
	m, _, _ := s.Registry().Resolve("nns")
	gen, ws, row := s.reg.Generation(), &rowScratch{}, d.Row(0)
	if _, err := cachedPredict(s, ws, m, gen, row); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cachedPredict(s, ws, m, gen, row); err != nil {
			b.Fatal(err)
		}
	}
}

// uncachedPredict returns the identical workload through the plain
// micro-batcher, bypassing the cache: encode one row, then
// Batcher.Predict with a reused request and output slice, as a pooled
// rowScratch supplies them.
func uncachedPredict(tb testing.TB) func() error {
	s, d, _ := newTestServer(tb)
	m, _, _ := s.Registry().Resolve("nns")
	raw := [][]dataset.Value{d.Row(0)}
	var buf dataset.RowBuffer
	var req request
	out := make([]float64, 1)
	return func() error {
		rows, err := m.Pred.Encoder().EncodeRows(&buf, raw)
		if err == nil {
			err = s.bat.Predict(context.Background(), &req, m, rows, out)
		}
		return err
	}
}

// TestUncachedPredictAllocs pins the uncached single-row path at zero
// allocations per request: the caller supplies the request, its done
// channel and the output slice, and the worker's kernel scratch is its
// own. BENCH_8.json, recorded before the request moved into the
// caller's scratch, still reads 4 allocs/op for BenchmarkUncachedPredict.
// Under -race the path still runs but the count is not asserted, as in
// TestScanEncodeZeroAlloc.
func TestUncachedPredictAllocs(t *testing.T) {
	run := uncachedPredict(t)
	if err := run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := run(); err != nil {
			panic(err)
		}
	})
	if !raceEnabled && allocs != 0 {
		t.Fatalf("uncached predict allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkUncachedPredict is the identical workload through the plain
// micro-batcher, bypassing the cache — the baseline the cache must beat.
func BenchmarkUncachedPredict(b *testing.B) {
	run := uncachedPredict(b)
	if err := run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}
