package serve

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"perfpred/internal/core"
	"perfpred/internal/faultinject"
)

// TestCacheOnOffBitEquivalence is the property test behind the cache's
// "invisible except in latency" claim: two in-process daemons over the
// same artifacts — one serving through its cache, one whose every
// request takes the cache's fail-open bypass straight to the batcher —
// replay an identical seeded, 8-goroutine, duplicate-heavy, mixed-model
// schedule, and every 200 must carry exactly equal float64 predictions
// from both daemons AND equal the offline golden. Halfway through, one
// artifact is retrained in place and both daemons reload: post-reload
// answers must be the new model's bits, so any stale cache hit across
// the generation boundary fails the golden comparison.
func TestCacheOnOffBitEquivalence(t *testing.T) {
	const (
		seed       = int64(41)
		goroutines = 8
		perPhase   = 120 // requests per goroutine per phase
		hotRows    = 4   // duplicate-heavy: most traffic lands on these
	)

	d := synthDataset(t, 64, 6)
	dir := t.TempDir()
	saveModel(t, dir, "lre", trainModel(t, core.LRE, d))
	saveModel(t, dir, "nns", trainModel(t, core.NNS, d))

	mk := func() *Server {
		s, err := New(Config{ModelsDir: dir, Batcher: BatcherConfig{Workers: 2, QueueDepth: 4096}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	cached := mk()
	// The bypass daemon snapshots an injector whose cache-lookup fault
	// fires on every request.
	restore := faultinject.Activate(faultinject.New(map[faultinject.Point]faultinject.Plan{
		faultinject.ServeCacheLookup: {Every: 1, Err: errors.New("cache bypassed")},
	}))
	bypass := mk()
	restore()

	models := []string{"lre", "nns"}
	// goldens[phase][model][row index] — offline references computed from
	// freshly loaded artifacts, independent of either daemon's registry.
	golden := func() map[string][]float64 {
		out := make(map[string][]float64)
		for _, name := range models {
			m, err := LoadModelFile(dir + "/" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]float64, d.Len())
			for i := 0; i < d.Len(); i++ {
				v, err := m.Pred.Predict(d.Row(i))
				if err != nil {
					t.Fatal(err)
				}
				vals[i] = v
			}
			out[name] = vals
		}
		return out
	}

	runPhase := func(phase int, goldens map[string][]float64) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(phase*1000+g)))
				for i := 0; i < perPhase; i++ {
					model := models[rng.Intn(len(models))]
					// Duplicate-heavy row choice: 70% hot pool, else anywhere.
					pick := func() int {
						if rng.Float64() < 0.7 {
							return rng.Intn(hotRows)
						}
						return rng.Intn(d.Len())
					}
					var body map[string]any
					var idxs []int
					if rng.Float64() < 0.6 {
						idxs = []int{pick()}
						body = map[string]any{"model": model, "row": rowJSON(d, idxs[0])}
					} else {
						n := 1 + rng.Intn(4)
						rows := make([][]any, n)
						idxs = make([]int, n)
						for j := range rows {
							idxs[j] = pick()
							rows[j] = rowJSON(d, idxs[j])
						}
						body = map[string]any{"model": model, "rows": rows}
					}
					wc := postPredict(t, cached.Handler(), body)
					wp := postPredict(t, bypass.Handler(), body)
					if wc.Code != http.StatusOK || wp.Code != http.StatusOK {
						t.Errorf("phase %d g%d req %d: cached=%d bypass=%d (%s | %s)",
							phase, g, i, wc.Code, wp.Code, wc.Body, wp.Body)
						return
					}
					var rc, rp PredictResponse
					if err := json.Unmarshal(wc.Body.Bytes(), &rc); err != nil {
						t.Errorf("cached body: %v", err)
						return
					}
					if err := json.Unmarshal(wp.Body.Bytes(), &rp); err != nil {
						t.Errorf("bypass body: %v", err)
						return
					}
					if len(rc.Predictions) != len(idxs) || len(rp.Predictions) != len(idxs) {
						t.Errorf("phase %d: lengths %d/%d, want %d", phase, len(rc.Predictions), len(rp.Predictions), len(idxs))
						return
					}
					for j, idx := range idxs {
						want := goldens[model][idx]
						if rc.Predictions[j] != want {
							t.Errorf("phase %d %s row %d: cached %v != golden %v", phase, model, idx, rc.Predictions[j], want)
							return
						}
						if rp.Predictions[j] != want {
							t.Errorf("phase %d %s row %d: bypass %v != golden %v", phase, model, idx, rp.Predictions[j], want)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}

	runPhase(1, golden())

	// Mid-run boundary: retrain one model with a different seed, swap the
	// artifact, reload BOTH daemons, and replay against new goldens. The
	// retrain must actually move the predictions or the reload check
	// proves nothing.
	old := golden()["nns"][0]
	saveModel(t, dir, "nns", trainModelSeed(t, core.NNS, d, 99))
	next := golden()
	if next["nns"][0] == old {
		t.Fatal("retrained nns predicts identically; reload phase has no teeth")
	}
	if _, err := cached.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := bypass.Reload(); err != nil {
		t.Fatal(err)
	}

	runPhase(2, next)

	// The cache must have actually been in play for the comparison to
	// mean anything, and its accounting must balance.
	cs := cached.Report().Cache
	hits, misses, lookups := cs.Hits, cs.Misses, cs.Lookups
	if hits == 0 {
		t.Fatal("cached daemon recorded zero hits over a duplicate-heavy schedule")
	}
	if hits+misses != lookups {
		t.Fatalf("hits(%d)+misses(%d) != lookups(%d)", hits, misses, lookups)
	}
	if inv := cs.Invalidations; inv < 1 {
		t.Fatalf("invalidations = %d, want ≥ 1 after reload", inv)
	}
	// The bypass daemon's cache counters must not have moved at all, or
	// its answers do not stand for the batcher alone.
	if bs := bypass.Report().Cache; bs.Lookups != 0 || bs.Hits != 0 || bs.Misses != 0 {
		t.Fatalf("bypass daemon cache counters %+v, want 0 lookups, hits and misses", bs)
	}
}
