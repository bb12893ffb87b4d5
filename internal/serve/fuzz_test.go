package serve

import (
	"bytes"
	"math"
	"testing"

	"perfpred/internal/dataset"
)

// FuzzDecodePredictRequest hardens the /v1/predict front half against
// hostile bodies: whatever the bytes, decode, resolve and encode must
// never panic, and anything they accept must satisfy the invariants the
// cache, batcher and kernel rely on — non-empty row set, schema arity,
// finite numerics, correctly typed values, and exactly NumColumns
// encoded cells per row. The encoder is fitted for linear regression
// with a numerically mapped categorical, the one column encoding can
// reject. Seeds cover the malformed-JSON, NaN/Inf, wrong-arity and
// unmapped-category corners; the committed corpus under testdata/fuzz
// replays past findings in CI's fuzz-regression step.
func FuzzDecodePredictRequest(f *testing.F) {
	seeds := []string{
		`{"model":"m","row":[32,true,"weak"]}`,
		`{"model":"m","rows":[[32,true,"weak"],[48.5,false,"strong"]]}`,
		`{"model":"m","row":[`,
		`{"model":"m","row":[1e999,true,"weak"]}`,
		`{"model":"m","row":["NaN",true,"weak"]}`,
		`{"model":"m","row":[32,true]}`,
		`{"model":"","row":[32,true,"weak"]}`,
		`{"model":"m","row":[32,true,"weak"],"rows":[[32,true,"weak"]]}`,
		`{"model":"m","rows":[]}`,
		`{"model":"m","row":[32,true,"weak"]} trailing`,
		`{"model":"m","row":[32,true,"weak"],"extra":1}`,
		`{"model":"m","row":[null,true,"weak"]}`,
		`{"model":"m","row":[[32],true,"weak"]}`,
		`[1,2,3]`,
		``,
		`{"model":"m","row":[32,true,"alien"]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	schema, err := dataset.NewSchema("cycles",
		dataset.Field{Name: "size", Kind: dataset.Numeric},
		dataset.Field{Name: "fast", Kind: dataset.Flag},
		dataset.Field{Name: "pred", Kind: dataset.Categorical, NumericLevels: map[string]float64{"weak": 1, "strong": 2}},
	)
	if err != nil {
		f.Fatal(err)
	}
	train := dataset.New(schema)
	for i, pred := range []string{"weak", "strong", "weak"} {
		row := []dataset.Value{dataset.Num(float64(16 * (i + 1))), dataset.FlagVal(i == 1), dataset.Cat(pred)}
		if err := train.Append(row, float64(100-i)); err != nil {
			f.Fatal(err)
		}
	}
	enc, err := dataset.FitEncoder(train, dataset.ForLR)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodePredictRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if req.Model == "" {
			t.Fatal("decoder accepted a request without a model")
		}
		if (req.Row == nil) == (req.Rows == nil) {
			t.Fatal("decoder accepted a request without exactly one of row/rows")
		}
		rows, err := req.Resolve(schema)
		if err != nil {
			return
		}
		if len(rows) == 0 || len(rows) > MaxRowsPerRequest {
			t.Fatalf("resolve produced %d rows", len(rows))
		}
		if req.Single() != (len(rows) == 1 && req.Row != nil) {
			t.Fatalf("Single()=%v with %d rows", req.Single(), len(rows))
		}
		for _, row := range rows {
			if len(row) != len(schema.Fields) {
				t.Fatalf("resolved row has %d values for %d fields", len(row), len(schema.Fields))
			}
			for j, f := range schema.Fields {
				v := row[j]
				if v.Kind() != f.Kind {
					t.Fatalf("field %q resolved to kind %v", f.Name, v.Kind())
				}
				if f.Kind == dataset.Numeric {
					if x := v.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
						t.Fatalf("field %q resolved to non-finite %v", f.Name, x)
					}
				}
			}
		}
		var buf dataset.RowBuffer
		encoded, err := enc.EncodeRows(&buf, rows)
		if err != nil {
			return
		}
		if len(encoded) != len(rows) {
			t.Fatalf("encoded %d rows of %d", len(encoded), len(rows))
		}
		for i, x := range encoded {
			if len(x) != enc.NumColumns() {
				t.Fatalf("row %d encoded to %d cells, encoder has %d columns", i, len(x), enc.NumColumns())
			}
		}
	})
}
