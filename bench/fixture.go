package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"perfpred"
	"perfpred/internal/core"
	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/stat"
)

// fixtureModels are the served models, in registry (file name) order.
var fixtureModels = []struct {
	name string
	kind perfpred.ModelKind
}{
	{"lrb", perfpred.LRB},
	{"nns", perfpred.NNS},
	{"treeb", perfpred.TreeB},
}

// fixture is what the serving workloads serve and check against: the
// saved models, every design point of the gcc space in enumeration order
// with its wire encoding, and the offline golden prediction of every
// (model, point) pair.
type fixture struct {
	dir     string
	rows    [][]dataset.Value
	rowJSON [][]byte    // rows[i] as a JSON array in the predict wire format
	golden  [][]float64 // golden[model][row]
}

// buildFixture simulates the gcc space at a 60k-instruction trace, trains
// every fixture model on a 3% sample (seed 1), saves them into dir, loads
// them back and scores all rows offline through PredictRowsInto.
func buildFixture(ctx context.Context, dir string) (*fixture, error) {
	ds, err := perfpred.SimulateDesignSpace(ctx, "gcc", perfpred.SimOptions{TraceLen: 60_000})
	if err != nil {
		return nil, err
	}
	sample, _, err := ds.SampleFraction(stat.NewRand(1), 0.03)
	if err != nil {
		return nil, err
	}
	fx := &fixture{dir: dir, rows: make([][]dataset.Value, ds.Len()), rowJSON: make([][]byte, ds.Len())}
	for i := range fx.rows {
		fx.rows[i] = ds.Row(i)
		if fx.rowJSON[i], err = json.Marshal(wireRow(fx.rows[i])); err != nil {
			return nil, err
		}
	}
	wctx := engine.NewWorkerContext(ctx)
	for _, m := range fixtureModels {
		p, err := perfpred.Train(ctx, m.kind, sample, perfpred.TrainConfig{Seed: 1})
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, m.name+".json")
		if err := savePredictor(path, p); err != nil {
			return nil, err
		}
		// Goldens score the artifact as loaded from disk: the bytes the
		// replicas serve.
		loaded, err := core.LoadPredictorFile(path)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(fx.rows))
		if err := loaded.PredictRowsInto(wctx, out, fx.rows); err != nil {
			return nil, fmt.Errorf("scoring goldens for %s: %w", m.name, err)
		}
		fx.golden = append(fx.golden, out)
	}
	return fx, nil
}

func savePredictor(path string, p *perfpred.Predictor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireRow renders a record as the predict API's JSON row: numbers for
// numeric fields, booleans for flags, strings for categoricals.
func wireRow(row []dataset.Value) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.Kind() {
		case dataset.Numeric:
			out[i] = v.Float()
		case dataset.Flag:
			out[i] = v.Bool()
		default:
			out[i] = v.Label()
		}
	}
	return out
}
