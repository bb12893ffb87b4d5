package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/tree"
)

// TestPredictRowsIntoMatchesPredict pins the serving batch entries to
// the per-row scalar path: for one kind of every registered family,
// PredictRowsInto over raw rows and PredictEncodedInto over the same
// rows encoded must both be bit-identical to Predict called row by row.
func TestPredictRowsIntoMatchesPredict(t *testing.T) {
	d := synthSpace(t, 96, 5)
	ctx := context.Background()
	for _, kind := range []ModelKind{LRE, NNS, tree.KindTreeB} {
		p, err := Train(ctx, kind, d, quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		rows := d.Rows(0, d.Len())
		var buf dataset.RowBuffer
		enc, err := p.Encoder().EncodeRows(&buf, rows)
		if err != nil {
			t.Fatal(err)
		}
		entries := map[string]func(out []float64) error{
			"PredictRowsInto":    func(out []float64) error { return p.PredictRowsInto(ctx, out, rows) },
			"PredictEncodedInto": func(out []float64) error { return p.PredictEncodedInto(ctx, out, enc) },
		}
		for name, predict := range entries {
			out := make([]float64, len(rows))
			if err := predict(out); err != nil {
				t.Fatal(err)
			}
			for i, row := range rows {
				want, err := p.Predict(row)
				if err != nil {
					t.Fatal(err)
				}
				if out[i] != want {
					t.Fatalf("%v row %d: %s = %v, Predict = %v (not bit-identical)", kind, i, name, out[i], want)
				}
			}
			// A length mismatch is rejected, not sliced around.
			if err := predict(make([]float64, 1)); err == nil {
				t.Fatalf("%v: %s accepted an out/rows length mismatch", kind, name)
			}
		}
		// Bad rows are rejected before any kernel runs.
		bad := [][]dataset.Value{{dataset.Num(1)}}
		if err := p.PredictRowsInto(ctx, make([]float64, 1), bad); err == nil {
			t.Fatalf("%v: short row accepted", kind)
		}
		if err := p.PredictEncodedInto(ctx, make([]float64, 1), [][]float64{{1}}); err == nil {
			t.Fatalf("%v: narrow encoded row accepted", kind)
		}
	}
}

// TestPredictRowsIntoZeroAlloc pins the serving hot paths: with a
// worker-local context, steady-state batch scoring of raw rows
// (PredictRowsInto) and of encoded rows (PredictEncodedInto, the
// batcher's entry) allocates nothing — for the neural family (whose
// scratch carries forward buffers) and for the tree family (which needs
// none), sharing one worker context the way a mixed-model serving
// worker does.
func TestPredictRowsIntoZeroAlloc(t *testing.T) {
	d := synthSpace(t, 64, 7)
	rows := d.Rows(0, d.Len())
	out := make([]float64, len(rows))
	ctx := engine.NewWorkerContext(context.Background())
	for _, kind := range []ModelKind{NNS, tree.KindTreeB} {
		p, err := Train(context.Background(), kind, d, quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		var buf dataset.RowBuffer
		enc, err := p.Encoder().EncodeRows(&buf, rows)
		if err != nil {
			t.Fatal(err)
		}
		entries := map[string]func() error{
			"PredictRowsInto":    func() error { return p.PredictRowsInto(ctx, out, rows) },
			"PredictEncodedInto": func() error { return p.PredictEncodedInto(ctx, out, enc) },
		}
		for name, predict := range entries {
			// Warm the worker-local scratch, then demand zero allocations.
			if err := predict(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := predict(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v: %s allocates %v allocs/op in steady state, want 0", kind, name, allocs)
			}
		}
	}
}

func TestLoadPredictorFile(t *testing.T) {
	d := synthSpace(t, 64, 11)
	p, err := Train(context.Background(), LRE, d, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := LoadPredictorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != LRE {
		t.Fatalf("loaded kind %v, want LR-E", got.Kind())
	}
	want, err := p.Predict(d.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	y, err := got.Predict(d.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	if y != want {
		t.Fatalf("loaded predictor predicts %v, original %v", y, want)
	}

	if _, err := LoadPredictorFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictorFile(badPath); err == nil {
		t.Fatal("malformed file accepted")
	}
}

// TestValidateCatchesWidthMismatch corrupts a serialized artifact so the
// model payload and encoder disagree on input width, and checks the
// registry loader rejects it.
func TestValidateCatchesWidthMismatch(t *testing.T) {
	d := synthSpace(t, 64, 13)
	p, err := Train(context.Background(), NNS, d, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("freshly trained predictor invalid: %v", err)
	}

	// Pair this predictor's model payload with an encoder fitted on a
	// narrower schema.
	narrow := synthNarrow(t)
	q, err := Train(context.Background(), NNS, narrow, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	frank := &Predictor{kind: p.kind, fam: p.fam, enc: q.enc, model: p.model}
	err = frank.Validate()
	if err == nil {
		t.Fatal("width-mismatched predictor validated")
	}
	if !strings.Contains(err.Error(), "inputs") {
		t.Errorf("unexpected validation error: %v", err)
	}
}

// synthNarrow builds a tiny dataset with fewer encoded columns than
// synthSpace produces.
func synthNarrow(t *testing.T) *dataset.Dataset {
	t.Helper()
	s, err := dataset.NewSchema("cycles",
		dataset.Field{Name: "size", Kind: dataset.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.New(s)
	for i := 0; i < 16; i++ {
		if err := d.Append([]dataset.Value{dataset.Num(float64(16 + i))}, float64(1000-i)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}
