package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"perfpred/internal/dataset"
	"perfpred/internal/tree"
)

// FuzzUnmarshalPredictor checks the predictor decoder never panics and
// that every successfully loaded predictor can score a row of the schema
// it claims.
func FuzzUnmarshalPredictor(f *testing.F) {
	train, err := buildFuzzDataset()
	if err != nil {
		f.Fatal(err)
	}
	for _, kind := range []ModelKind{LRE, NNS, tree.KindTreeB} {
		p, err := Train(context.Background(), kind, train, TrainConfig{Seed: 1, EpochScale: 0.2, Workers: 1})
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// A corrupted variant.
		bad := append([]byte(nil), data...)
		if len(bad) > 40 {
			bad[30] ^= 0x5a
		}
		f.Add(bad)
		if kind == tree.KindTreeB {
			// A root whose left child index overflows a node's uint16 and
			// would wrap to node 1, a valid child.
			f.Add(bytes.Replace(data, []byte(`"l":1,`), []byte(`"l":65537,`), 1))
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`not json at all`))

	probe := train.Row(0)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPredictor(data)
		if err != nil {
			return
		}
		// The loaded predictor must be usable if its schema matches.
		if p.Encoder().Schema() == nil {
			t.Fatal("loaded predictor has no schema")
		}
		if len(p.Encoder().Schema().Fields) == len(probe) {
			if _, err := p.Predict(probe); err != nil {
				// An error is fine (e.g. unmapped category); a panic is not.
				return
			}
		}
	})
}

// buildFuzzDataset builds a small deterministic training set without a
// *testing.T (fuzz setup runs under *testing.F).
func buildFuzzDataset() (*dataset.Dataset, error) {
	s, err := dataset.NewSchema("y",
		dataset.Field{Name: "a", Kind: dataset.Numeric},
		dataset.Field{Name: "b", Kind: dataset.Flag},
	)
	if err != nil {
		return nil, err
	}
	d := dataset.New(s)
	for i := 0; i < 40; i++ {
		x := float64(i)
		y := 3*x + 10
		if i%2 == 0 {
			y *= 1.1
		}
		if err := d.Append([]dataset.Value{dataset.Num(x), dataset.FlagVal(i%2 == 0)}, y); err != nil {
			return nil, err
		}
	}
	return d, nil
}
