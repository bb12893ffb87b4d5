package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"perfpred/internal/dataset"
)

// TestPredictorSaveLoadRoundTrip covers every registered kind — any
// family added to the registry is automatically held to the same
// bit-identical persistence contract.
func TestPredictorSaveLoadRoundTrip(t *testing.T) {
	train := synthSpace(t, 150, 21)
	probeRows := synthSpace(t, 20, 22)
	for _, kind := range AllModels() {
		p, err := Train(context.Background(), kind, train, quickCfg())
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("%v: save: %v", kind, err)
		}
		back, err := LoadPredictor(&buf)
		if err != nil {
			t.Fatalf("%v: load: %v", kind, err)
		}
		if back.Kind() != kind {
			t.Fatalf("%v: kind became %v", kind, back.Kind())
		}
		for i := 0; i < probeRows.Len(); i++ {
			want, err := p.Predict(probeRows.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.Predict(probeRows.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v: loaded model predicts %v, original %v", kind, got, want)
			}
		}
	}
}

func TestPredictorLoadRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalPredictor([]byte("not json")); err == nil {
		t.Fatal("garbage: want error")
	}
	if _, err := UnmarshalPredictor([]byte(`{"version":99}`)); err == nil {
		t.Fatal("bad version: want error")
	}
	if _, err := UnmarshalPredictor([]byte(`{"version":1,"kind":0,"encoder":{"version":1}}`)); err == nil {
		t.Fatal("empty encoder: want error")
	}
}

func TestPredictorLoadRejectsPayloadMismatch(t *testing.T) {
	train := synthSpace(t, 80, 23)
	p, err := Train(context.Background(), LRE, train, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	mutate := func(change func(m map[string]json.RawMessage)) []byte {
		m := make(map[string]json.RawMessage, len(st))
		for k, v := range st {
			m[k] = v
		}
		change(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// Claim the linreg payload belongs to a neural kind: the family tag
	// no longer matches the kind's registered family.
	bad := mutate(func(m map[string]json.RawMessage) { m["kind"] = json.RawMessage("9") }) // NNS
	if _, err := UnmarshalPredictor(bad); err == nil {
		t.Fatal("kind/family mismatch: want error")
	}
	// Strip the payload entirely.
	empty := mutate(func(m map[string]json.RawMessage) { delete(m, "model") })
	if _, err := UnmarshalPredictor(empty); err == nil {
		t.Fatal("missing payload: want error")
	}
}

func TestLoadedPredictorImportancesWork(t *testing.T) {
	train := synthSpace(t, 200, 24)
	p, err := Train(context.Background(), NNQ, train, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	imps, err := back.Importances(train)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) == 0 {
		t.Fatal("no importances from a loaded model")
	}
}

// TestPredictorDecodeErrorStrings pins the exact error message each
// malformed artifact shape decodes to. These
// strings are part of the operational surface — registry reload
// failures and predict-CLI errors quote them verbatim — so changing one
// is a breaking change this table makes deliberate.
func TestPredictorDecodeErrorStrings(t *testing.T) {
	train := synthSpace(t, 80, 27)
	p, err := Train(context.Background(), LRE, train, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]json.RawMessage
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	artifact := func(change func(m map[string]json.RawMessage)) []byte {
		m := make(map[string]json.RawMessage, len(base))
		for k, v := range base {
			m[k] = v
		}
		change(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{
			"v1 artifact",
			artifact(func(m map[string]json.RawMessage) {
				m["version"] = json.RawMessage("1")
				m["lr"] = m["model"]
				delete(m, "model")
				delete(m, "family")
			}),
			"core: unsupported predictor version 1",
		},
		{
			"v2 without a payload",
			artifact(func(m map[string]json.RawMessage) { delete(m, "model") }),
			"core: predictor has no model payload",
		},
		{
			"v2 family/kind mismatch",
			artifact(func(m map[string]json.RawMessage) { m["kind"] = json.RawMessage("9") }), // NNS
			`core: predictor family "linreg/v1" does not match NN-S (family "neural/v1")`,
		},
		{
			"unsupported version",
			artifact(func(m map[string]json.RawMessage) { m["version"] = json.RawMessage("3") }),
			"core: unsupported predictor version 3",
		},
		{
			"unknown kind",
			artifact(func(m map[string]json.RawMessage) { m["kind"] = json.RawMessage("99") }),
			"core: predictor has unknown model kind ModelKind(99)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnmarshalPredictor(tc.data)
			if err == nil {
				t.Fatal("malformed artifact decoded without error")
			}
			if err.Error() != tc.want {
				t.Errorf("error = %q\nwant    %q", err.Error(), tc.want)
			}
		})
	}
}

// TestRankDeficientLinearFitRoundTrips saves an LR-E fit whose design has
// an aliased column: the aliased coefficient's standard error and p-value
// are undefined, travel as JSON null, and load back as NaN, so the loaded
// model predicts bit for bit like the original and saves the same bytes.
func TestRankDeficientLinearFitRoundTrips(t *testing.T) {
	s, err := dataset.NewSchema("cycles",
		dataset.Field{Name: "size", Kind: dataset.Numeric},
		dataset.Field{Name: "size_again", Kind: dataset.Numeric},
		dataset.Field{Name: "width", Kind: dataset.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.New(s)
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 120; i++ {
		size, width := 16+float64(r.Intn(5))*16, float64(2+r.Intn(4)*2)
		y := 10000/width + 2000*math.Exp(-size/32) + r.Float64()
		if err := d.Append([]dataset.Value{dataset.Num(size), dataset.Num(size), dataset.Num(width)}, y); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Train(context.Background(), LRE, d, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatalf("save: %v", err)
	}
	if !bytes.Contains(saved.Bytes(), []byte(`"StdErr":null,"P":null`)) {
		t.Fatalf("no undefined standard error in the saved fit: %s", saved.Bytes())
	}
	back, err := LoadPredictor(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for i := 0; i < d.Len(); i++ {
		want, err := p.Predict(d.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Predict(d.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: loaded model predicts %v, original %v", i, got, want)
		}
	}
	var resaved bytes.Buffer
	if err := back.Save(&resaved); err != nil {
		t.Fatalf("save after load: %v", err)
	}
	if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
		t.Fatalf("re-saved artifact differs:\n%s\n%s", resaved.Bytes(), saved.Bytes())
	}
}
