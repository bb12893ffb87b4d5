package perfpred

import (
	"context"
	"math"
	"testing"
)

// fastSim keeps the public-API tests cheap: short traces, sparse space.
func fastSim() SimOptions {
	return SimOptions{TraceLen: 60_000, Stride: 48, Workers: 4}
}

func fastTrain() TrainConfig {
	return TrainConfig{Seed: 1, Workers: 4, EpochScale: 0.25}
}

func TestPublicEndToEndSampledDSE(t *testing.T) {
	full, err := SimulateDesignSpace(context.Background(), "applu", fastSim())
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != 96 {
		t.Fatalf("space size %d", full.Len())
	}
	res, err := RunSampledDSE(context.Background(), full, 0.25, SampledModels(), fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSize != 24 {
		t.Fatalf("sample size %d", res.SampleSize)
	}
	if res.SelectedTrueMAPE <= 0 || res.SelectedTrueMAPE > 50 {
		t.Fatalf("selected error %.2f implausible", res.SelectedTrueMAPE)
	}
}

func TestPublicEndToEndChronological(t *testing.T) {
	recs, err := GenerateSPECData("Pentium D", 1)
	if err != nil {
		t.Fatal(err)
	}
	train, err := SPECDataset(recs, 2005)
	if err != nil {
		t.Fatal(err)
	}
	future, err := SPECDataset(recs, 2006)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunChronological(context.Background(), train, future, []ModelKind{LRE, NNS}, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("%d reports", len(res.Reports))
	}
	if res.BestTrueMAPE <= 0 {
		t.Fatal("no best error")
	}
}

func TestPublicCustomSchemaFlow(t *testing.T) {
	schema, err := NewSchema("latency",
		Field{Name: "threads", Kind: Numeric},
		Field{Name: "numa", Kind: Flag},
		Field{Name: "alloc", Kind: Categorical, NumericLevels: map[string]float64{"slab": 1, "buddy": 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset(schema)
	allocs := []string{"slab", "buddy"}
	for i := 0; i < 120; i++ {
		threads := float64(1 + i%16)
		numa := i%3 == 0
		alloc := allocs[i%2]
		y := 100/threads + 5
		if numa {
			y *= 0.9
		}
		if alloc == "buddy" {
			y *= 1.1
		}
		if err := ds.Append([]Value{Num(threads), FlagVal(numa), Cat(alloc)}, y); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Train(context.Background(), NNQ, ds, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Predict([]Value{Num(8), FlagVal(false), Cat("slab")})
	if err != nil {
		t.Fatal(err)
	}
	want := 100.0/8 + 5
	if math.Abs(got-want)/want > 0.35 {
		t.Fatalf("prediction %.2f far from %.2f", got, want)
	}
	est, err := EstimateError(context.Background(), NNQ, ds, fastTrain())
	if err != nil {
		t.Fatal(err)
	}
	if est.Max <= 0 {
		t.Fatal("no estimate")
	}
}

func TestPublicLists(t *testing.T) {
	if len(AllModels()) != 11 || len(FigureModels()) != 9 || len(SampledModels()) != 3 {
		t.Fatal("model lists wrong")
	}
	if len(SPECFamilies()) != 7 {
		t.Fatal("family list wrong")
	}
	if len(Benchmarks()) != 12 || len(FiguredBenchmarks()) != 5 {
		t.Fatal("benchmark lists wrong")
	}
	if DesignSpaceSize != 4608 || len(MicroDesignSpace()) != 4608 {
		t.Fatal("design space size wrong")
	}
	if len(MicroSchema().Fields) != 24 || len(SPECSchema().Fields) != 32 {
		t.Fatal("schema widths wrong")
	}
	k, err := ParseModelKind("NN-E")
	if err != nil || k != NNE {
		t.Fatal("ParseModelKind broken")
	}
}

func TestPublicSimulateConfig(t *testing.T) {
	cfg := MicroDesignSpace()[100]
	res, err := SimulateConfig("gzip", cfg, SimOptions{TraceLen: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Instructions != 50_000 {
		t.Fatalf("result %+v degenerate", res)
	}
}
