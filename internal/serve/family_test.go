package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"perfpred/internal/core"
)

// TestServeAllKindsConcurrent proves the registry seam end to end: every
// registered model kind — the paper zoo and TREE-B alike — is trained,
// persisted, loaded by the serving registry, and scored through the HTTP
// handler and micro-batcher under concurrent load, bit-identical to the
// offline predictor. Serve contains no per-family code, so this test is
// the gate that a newly registered family really serves unchanged.
func TestServeAllKindsConcurrent(t *testing.T) {
	d := synthDataset(t, 64, 17)
	dir := t.TempDir()
	kinds := core.AllModels()
	names := make([]string, len(kinds))
	for i, kind := range kinds {
		names[i] = strings.ToLower(strings.ReplaceAll(kind.String(), "-", ""))
		saveModel(t, dir, names[i], trainModel(t, kind, d))
	}
	s, err := New(Config{ModelsDir: dir, Batcher: BatcherConfig{Workers: 3, MaxBatch: 8}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()

	// Offline truth per kind, computed on the served (round-tripped)
	// predictors so this isolates the serving path.
	offline := make(map[string][]float64, len(names))
	for _, name := range names {
		m, _, ok := s.Registry().Resolve(name)
		if !ok {
			t.Fatalf("model %q not served", name)
		}
		preds, err := m.Pred.PredictDataset(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		offline[name] = preds
	}

	rows := make([][]any, d.Len())
	for i := range rows {
		rows[i] = rowJSON(d, i)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(names)*3)
	for _, name := range names {
		for rep := 0; rep < 3; rep++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				w := postPredict(t, h, map[string]any{"model": name, "rows": rows})
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("%s: HTTP %d: %s", name, w.Code, w.Body)
					return
				}
				var resp PredictResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					errs <- fmt.Errorf("%s: %v", name, err)
					return
				}
				for i, want := range offline[name] {
					if resp.Predictions[i] != want {
						errs <- fmt.Errorf("%s row %d: served %v != offline %v", name, i, resp.Predictions[i], want)
						return
					}
				}
			}(name)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// /v1/models reports each model's family tag from the registry.
	req := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var mr ModelsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	families := make(map[string]string, len(mr.Models))
	for _, m := range mr.Models {
		families[m.Name] = m.Family
	}
	for i, kind := range kinds {
		if got := families[names[i]]; got != kind.Tag() {
			t.Errorf("%v: /v1/models family %q, want %q", kind, got, kind.Tag())
		}
	}
}
