package neural

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// smoothData samples a smooth nonlinear surface on [0,1]³ with targets
// scaled into [0,1] — the kind of function the sampled-DSE study models.
func smoothData(seed int64, n int) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b, c := r.Float64(), r.Float64(), r.Float64()
		x[i] = []float64{a, b, c}
		y[i] = 0.1 + 0.8*(0.5*a+0.3*math.Sin(2*a*b)+0.2*c*c)/1.0
		if y[i] > 1 {
			y[i] = 1
		}
	}
	return x, y
}

func trainCfg(m Method) Config {
	return Config{Method: m, Seed: 42, EpochScale: 0.4, Workers: 2}
}

func TestTrainAllMethodsFitSmoothSurface(t *testing.T) {
	x, y := smoothData(1, 120)
	xt, yt := smoothData(2, 200)
	for _, m := range Methods() {
		model, err := Train(context.Background(), x, y, trainCfg(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if model.method != m {
			t.Fatalf("%v: method mismatch", m)
		}
		mse := 0.0
		for i := range xt {
			d := model.net.Predict1(xt[i]) - yt[i]
			mse += d * d
		}
		mse /= float64(len(xt))
		if mse > 0.01 {
			t.Errorf("%v: held-out MSE %v too high", m, mse)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	x, y := smoothData(3, 60)
	for _, m := range []Method{Quick, Single, Multiple} {
		m1, err := Train(context.Background(), x, y, trainCfg(m))
		if err != nil {
			t.Fatal(err)
		}
		m2, err := Train(context.Background(), x, y, trainCfg(m))
		if err != nil {
			t.Fatal(err)
		}
		probe := []float64{0.3, 0.6, 0.9}
		if m1.net.Predict1(probe) != m2.net.Predict1(probe) {
			t.Errorf("%v not deterministic", m)
		}
	}
}

func TestTrainMultipleDeterministicAcrossWorkerCounts(t *testing.T) {
	x, y := smoothData(4, 60)
	cfg1 := Config{Method: Multiple, Seed: 7, EpochScale: 0.3, Workers: 1}
	cfg4 := Config{Method: Multiple, Seed: 7, EpochScale: 0.3, Workers: 4}
	m1, err := Train(context.Background(), x, y, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := Train(context.Background(), x, y, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.2, 0.5, 0.8}
	if m1.net.Predict1(probe) != m4.net.Predict1(probe) {
		t.Fatal("worker count changed the trained model")
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(context.Background(), nil, nil, trainCfg(Quick)); err == nil {
		t.Fatal("no data: want error")
	}
	if _, err := Train(context.Background(), [][]float64{{1}}, []float64{1, 2}, trainCfg(Quick)); err == nil {
		t.Fatal("mismatch: want error")
	}
	if _, err := Train(context.Background(), [][]float64{{}, {}, {}, {}}, []float64{1, 2, 3, 4}, trainCfg(Quick)); err == nil {
		t.Fatal("zero-width: want error")
	}
	if _, err := Train(context.Background(), [][]float64{{1}, {2, 3}, {4}, {5}}, []float64{1, 2, 3, 4}, trainCfg(Quick)); err == nil {
		t.Fatal("ragged: want error")
	}
	if _, err := Train(context.Background(), [][]float64{{1}, {2}}, []float64{1, 2}, trainCfg(Quick)); err == nil {
		t.Fatal("too few records: want error")
	}
	x, y := smoothData(5, 20)
	if _, err := Train(context.Background(), x, y, Config{Method: Method(42), Seed: 1}); err == nil {
		t.Fatal("unknown method: want error")
	}
}

func TestSingleHasSmallerHiddenLayerThanQuick(t *testing.T) {
	x, y := smoothData(6, 80)
	ms, err := Train(context.Background(), x, y, trainCfg(Single))
	if err != nil {
		t.Fatal(err)
	}
	mq, err := Train(context.Background(), x, y, trainCfg(Quick))
	if err != nil {
		t.Fatal(err)
	}
	hs := ms.net.sizes[1]
	hq := mq.net.sizes[1]
	if hs > hq {
		t.Fatalf("NN-S hidden %d should be <= NN-Q hidden %d (paper §3.2)", hs, hq)
	}
}

func TestPruneShrinksNetwork(t *testing.T) {
	// A target that depends on only one of three inputs: pruning should
	// yield a network no larger than it started.
	r := rand.New(rand.NewSource(7))
	n := 100
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		y[i] = 0.2 + 0.6*x[i][0]
	}
	model, err := Train(context.Background(), x, y, trainCfg(Prune))
	if err != nil {
		t.Fatal(err)
	}
	start := len(x[0]) // trainPrune starts with p hidden units
	if got := model.net.sizes[1]; got > start {
		t.Fatalf("prune grew the network: %d > %d", got, start)
	}
}

func TestExhaustivePruneBeatsSingleOnComplexSurface(t *testing.T) {
	// The paper's central sampled-DSE observation: NN-E ≥ NN-S in accuracy.
	gen := func(seed int64, n int) ([][]float64, []float64) {
		r := rand.New(rand.NewSource(seed))
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			a, b, c, d := r.Float64(), r.Float64(), r.Float64(), r.Float64()
			x[i] = []float64{a, b, c, d}
			y[i] = 0.1 + 0.8*(0.35*a+0.25*math.Sin(3*a*b)+0.2*b*c+0.2*d*d*a)
		}
		return x, y
	}
	x, y := gen(8, 150)
	xt, yt := gen(9, 300)
	mse := func(m *Model) float64 {
		s := 0.0
		for i := range xt {
			e := m.net.Predict1(xt[i]) - yt[i]
			s += e * e
		}
		return s / float64(len(xt))
	}
	me, err := Train(context.Background(), x, y, Config{Method: ExhaustivePrune, Seed: 21, EpochScale: 0.5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Train(context.Background(), x, y, Config{Method: Single, Seed: 21, EpochScale: 0.5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if mse(me) > mse(ms)*1.25 {
		t.Fatalf("NN-E (%.5f) clearly worse than NN-S (%.5f)", mse(me), mse(ms))
	}
}

func TestValidationMSEReported(t *testing.T) {
	x, y := smoothData(10, 80)
	mm, err := Train(context.Background(), x, y, trainCfg(Multiple))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(mm.valMSE) || mm.valMSE < 0 {
		t.Fatalf("Multiple should report a validation MSE, got %v", mm.valMSE)
	}
	msingle, err := Train(context.Background(), x, y, trainCfg(Single))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(msingle.valMSE) {
		t.Fatal("Single trains on all data; validation MSE should be NaN")
	}
}

func TestMethodString(t *testing.T) {
	want := map[Method]string{
		Quick: "NN-Q", Dynamic: "NN-D", Multiple: "NN-M",
		Prune: "NN-P", ExhaustivePrune: "NN-E", Single: "NN-S",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if len(Methods()) != 6 {
		t.Fatal("Methods() should list 6 methods")
	}
}

func TestPredictAll(t *testing.T) {
	x, y := smoothData(11, 40)
	m, err := Train(context.Background(), x, y, trainCfg(Single))
	if err != nil {
		t.Fatal(err)
	}
	batch := predictAll(m, x[:5])
	if len(batch) != 5 {
		t.Fatalf("len = %d", len(batch))
	}
	for i := range batch {
		if batch[i] != m.net.Predict1(x[i]) {
			t.Fatal("PredictAllInto disagrees with Predict1")
		}
	}
}
