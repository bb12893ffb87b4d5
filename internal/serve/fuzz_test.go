package serve

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"perfpred/internal/dataset"
)

// maxNestingDepth is encoding/json's nesting limit; a body nested deeper
// is a syntax error on both sides of the differential fuzz.
const maxNestingDepth = 10000

// FuzzDecodePredictRequest holds the serving decoder — ScanPredict, then
// pass 2 into pooled scratch and EncodeRows — to its oracle,
// DecodePredictRequest → Resolve → EncodeRows. On every input the two
// must land in the same one of three outcomes: rejected before model
// lookup, rejected against the schema (with the same error text), or
// accepted with the same encoded float64 bits. Both encodings of the
// categorical are under test: LR's numeric mapping, the one column
// encoding can reject, and NN's one-hot. Seeds cover the malformed-JSON,
// NaN/Inf, arity, unmapped-category, trailing-delimiter, case-folded and
// duplicate-key, and escape corners; the committed corpus under
// testdata/fuzz replays past findings in CI's fuzz-regression step.
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
		`{"model":"m","row":[1]}]`,
		`{"model":"m","row":[1]}}}}`,
		`{"MODEL":"m","rowſ":[[32,true,"weak"]]}`,
		`{"model":"m","row":[32,true,"weak"],"row":null,"rows":[[-0,false,"strong"]]}`,
		`{"mod\u0065l":"m","row":[32,true,"we\u0061k"]}`,
		`{"model":"m","rows":[null,[32,true,"weak"]]}`,
		`{"model":"m","model":null,"row":[0.5e-3,false,"\ud800strong"]}`,
	}
	// encoding/json's nesting limit is 10,000: the object and the row
	// array count, so the first body is as deep as it allows.
	for _, d := range []int{maxNestingDepth - 2, maxNestingDepth - 1} {
		seeds = append(seeds, `{"model":"m","row":[`+strings.Repeat("[", d)+strings.Repeat("]", d)+`]}`)
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
	var encs []*dataset.Encoder
	for _, mode := range []dataset.Mode{dataset.ForLR, dataset.ForNN} {
		enc, err := dataset.FitEncoder(train, mode)
		if err != nil {
			f.Fatal(err)
		}
		encs = append(encs, enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, oerr := DecodePredictRequest(bytes.NewReader(data))
		q, serr := ScanPredict(data)
		if (oerr == nil) != (serr == nil) {
			t.Fatalf("pass 1 disagrees: oracle %v, scanner %v", oerr, serr)
		}
		if oerr != nil {
			return
		}
		n := len(req.Rows)
		if req.Single() {
			n = 1
		}
		if string(q.Model) != req.Model || q.Single != req.Single() || q.N != n {
			t.Fatalf("scanner read model %q single=%v n=%d, oracle %q single=%v n=%d",
				q.Model, q.Single, q.N, req.Model, req.Single(), n)
		}
		for _, enc := range encs {
			var want [][]float64
			var buf dataset.RowBuffer
			raw, werr := req.Resolve(schema)
			if werr == nil {
				want, werr = enc.EncodeRows(&buf, raw)
			}
			var ws rowScratch
			got, gerr := q.encodeRows(&ws, enc, enc.Labels())
			if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
				t.Fatalf("%v encoder: oracle %v, scanner %v", enc.Mode(), werr, gerr)
			}
			if werr != nil {
				continue
			}
			for i := range want {
				if len(got[i]) != enc.NumColumns() {
					t.Fatalf("row %d encoded to %d cells, encoder has %d columns", i, len(got[i]), enc.NumColumns())
				}
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("%v encoder: row %d cell %d: scanner %v, oracle %v", enc.Mode(), i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	})
}
