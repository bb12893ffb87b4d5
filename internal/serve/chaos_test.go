package serve

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"perfpred/internal/core"
	"perfpred/internal/dataset"
	"perfpred/internal/faultinject"
)

// encodeRows encodes raw rows with m's encoder, as the handler does
// before admission.
func encodeRows(t testing.TB, m *Model, rows [][]dataset.Value) [][]float64 {
	t.Helper()
	var buf dataset.RowBuffer
	enc, err := m.Pred.Encoder().EncodeRows(&buf, rows)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestBatcherSoakUnderInjectedFlushLatency is a short deterministic
// soak: every 3rd batch flush stalls on an injected delay while eight
// clients hammer two real models with seed-derived request streams.
// Coalescing under pressure must never change answers — every response
// is bit-compared against offline PredictRowsInto goldens computed
// before the injector was armed. Runs under the race CI step with the
// rest of this package.
func TestBatcherSoakUnderInjectedFlushLatency(t *testing.T) {
	d := synthDataset(t, 64, 9)
	dir := t.TempDir()
	names := []string{"lre", "nns"}
	kinds := map[string]core.ModelKind{"lre": core.LRE, "nns": core.NNS}

	// Train, save, and reload each artifact; golden-score every dataset
	// row offline before any fault injector exists.
	models := map[string]*Model{}
	encoded := map[string][][]float64{}
	golden := map[string][]float64{}
	for _, name := range names {
		saveModel(t, dir, name, trainModel(t, kinds[name], d))
		m, err := LoadModelFile(filepath.Join(dir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		models[name] = m
		encoded[name] = encodeRows(t, m, d.Rows(0, d.Len()))
		out := make([]float64, d.Len())
		if err := m.Pred.PredictRowsInto(context.Background(), out, d.Rows(0, d.Len())); err != nil {
			t.Fatal(err)
		}
		golden[name] = out
	}

	inj := faultinject.New(map[faultinject.Point]faultinject.Plan{
		faultinject.ServeBatchFlush: {Every: 3, Latency: 1500 * time.Microsecond},
	})
	restore := faultinject.Activate(inj)
	defer restore()

	met := newMetrics()
	b := newBatcher(BatcherConfig{QueueDepth: 64, MaxBatch: 8, Workers: 2}, met, scoreModel)
	defer b.Close()

	const (
		clients          = 8
		requestsPer      = 40
		maxRowsPerSubmit = 3
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g))) // per-client deterministic stream
			for i := 0; i < requestsPer; i++ {
				name := names[r.Intn(len(names))]
				n := 1 + r.Intn(maxRowsPerSubmit)
				idxs := make([]int, n)
				rows := make([][]float64, n)
				for j := 0; j < n; j++ {
					idxs[j] = r.Intn(d.Len())
					rows[j] = encoded[name][idxs[j]]
				}
				out, err := predict(context.Background(), b, models[name], rows)
				if err != nil {
					errs <- err
					return
				}
				for j, idx := range idxs {
					if out[j] != golden[name][idx] {
						t.Errorf("client %d req %d: %s row %d predicted %v under flush faults, golden %v",
							g, i, name, idx, out[j], golden[name][idx])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("soak request failed: %v", err)
	}

	stats := inj.Stats()["serve.batch_flush"]
	if stats.Fires == 0 {
		t.Fatal("flush latency fault never fired")
	}
	if got := met.faults.Value(); got != int64(stats.Fires) {
		t.Errorf("faults counter %d, injector recorded %d fires", got, stats.Fires)
	}
}
