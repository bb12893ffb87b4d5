package linreg

import (
	"math"
	"math/rand"
	"testing"
)

// synth builds n observations of y = 4 + 3*x0 - 2*x1 + noise, with x2, x3
// pure noise predictors.
func synth(seed int64, n int, noise float64) (x [][]float64, y []float64) {
	r := rand.New(rand.NewSource(seed))
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		y[i] = 4 + 3*x[i][0] - 2*x[i][1] + noise*r.NormFloat64()
	}
	return x, y
}

// selectedNames lists the predictors the selection method kept.
func selectedNames(m *Model) []string {
	out := make([]string, len(m.selected))
	for i, j := range m.selected {
		out[i] = m.names[j]
	}
	return out
}

// r2 is the fit's coefficient of determination on its training data.
func r2(m *Model) float64 {
	if m.tss == 0 {
		return 0
	}
	return 1 - m.rss/m.tss
}

func TestFitEnterRecoversCoefficients(t *testing.T) {
	x, y := synth(1, 200, 0.01)
	m, err := Fit(x, y, nil, Options{Method: Enter})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.intercept-4) > 0.05 {
		t.Fatalf("intercept = %v", m.intercept)
	}
	coefByName := map[string]float64{}
	for _, c := range m.coeffs {
		coefByName[c.Name] = c.Beta
	}
	if math.Abs(coefByName["x0"]-3) > 0.05 || math.Abs(coefByName["x1"]+2) > 0.05 {
		t.Fatalf("coefficients = %v", coefByName)
	}
	if len(m.selected) != 4 {
		t.Fatalf("Enter must keep all predictors, kept %d", len(m.selected))
	}
}

func TestBackwardDropsNoisePredictors(t *testing.T) {
	x, y := synth(2, 200, 0.05)
	m, err := Fit(x, y, []string{"a", "b", "junk1", "junk2"}, Options{Method: Backward})
	if err != nil {
		t.Fatal(err)
	}
	sel := map[string]bool{}
	for _, n := range selectedNames(m) {
		sel[n] = true
	}
	if !sel["a"] || !sel["b"] {
		t.Fatalf("backward dropped a real predictor: %v", selectedNames(m))
	}
	if sel["junk1"] && sel["junk2"] {
		t.Fatalf("backward kept both junk predictors: %v", selectedNames(m))
	}
}

func TestForwardFindsRealPredictors(t *testing.T) {
	x, y := synth(3, 200, 0.05)
	m, err := Fit(x, y, []string{"a", "b", "junk1", "junk2"}, Options{Method: Forward})
	if err != nil {
		t.Fatal(err)
	}
	sel := map[string]bool{}
	for _, n := range selectedNames(m) {
		sel[n] = true
	}
	if !sel["a"] || !sel["b"] {
		t.Fatalf("forward missed a real predictor: %v", selectedNames(m))
	}
}

func TestStepwiseMatchesForwardOnCleanData(t *testing.T) {
	x, y := synth(4, 200, 0.05)
	mf, err := Fit(x, y, nil, Options{Method: Forward})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Fit(x, y, nil, Options{Method: Stepwise})
	if err != nil {
		t.Fatal(err)
	}
	// On clean data stepwise should keep at least the forward picks' quality.
	if r2(ms) < r2(mf)-1e-6 {
		t.Fatalf("stepwise R2 %v < forward R2 %v", r2(ms), r2(mf))
	}
}

func TestPredictMatchesManualComputation(t *testing.T) {
	x, y := synth(5, 100, 0)
	m, err := Fit(x, y, nil, Options{Method: Enter})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.5, 0.25, 0.1, 0.9}
	want := 4 + 3*0.5 - 2*0.25
	if got := m.Predict(probe); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
	batch := make([]float64, 2)
	familyModel{m}.PredictAllInto(batch, [][]float64{probe, probe}, nil)
	if batch[0] != m.Predict(probe) || batch[1] != batch[0] {
		t.Fatal("PredictAllInto inconsistent")
	}
}

func TestR2PerfectAndNull(t *testing.T) {
	x, y := synth(6, 100, 0)
	m, err := Fit(x, y, nil, Options{Method: Enter})
	if err != nil {
		t.Fatal(err)
	}
	if r2(m) < 1-1e-9 {
		t.Fatalf("noise-free R2 = %v", r2(m))
	}
}

func TestInterceptOnlyWhenNothingSignificant(t *testing.T) {
	// Target independent of predictors → forward keeps nothing.
	r := rand.New(rand.NewSource(7))
	n := 80
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{r.Float64(), r.Float64()}
		y[i] = 10 // constant target
	}
	m, err := Fit(x, y, nil, Options{Method: Forward})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.selected) != 0 {
		t.Fatalf("selected %v for a constant target", selectedNames(m))
	}
	if math.Abs(m.Predict([]float64{0.3, 0.4})-10) > 1e-9 {
		t.Fatal("intercept-only model should predict the mean")
	}
}

func TestStandardizedBetasRankImportance(t *testing.T) {
	// x0 has much larger standardized effect than x1.
	r := rand.New(rand.NewSource(8))
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{r.Float64(), r.Float64()}
		y[i] = 10*x[i][0] + 1*x[i][1] + 0.01*r.NormFloat64()
	}
	m, err := Fit(x, y, []string{"big", "small"}, Options{Method: Enter})
	if err != nil {
		t.Fatal(err)
	}
	var big, small float64
	for _, c := range m.coeffs {
		switch c.Name {
		case "big":
			big = math.Abs(c.StdBeta)
		case "small":
			small = math.Abs(c.StdBeta)
		}
	}
	if big <= small || big < 5*small {
		t.Fatalf("standardized betas big=%v small=%v", big, small)
	}
}

func TestCoefficientPValues(t *testing.T) {
	x, y := synth(9, 200, 0.1)
	m, err := Fit(x, y, []string{"a", "b", "junk1", "junk2"}, Options{Method: Enter})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.coeffs {
		switch c.Name {
		case "a", "b":
			if !(c.P < 1e-6) {
				t.Errorf("real predictor %s p-value %v not significant", c.Name, c.P)
			}
		default:
			if c.P < 1e-4 {
				t.Errorf("junk predictor %s spuriously significant p=%v", c.Name, c.P)
			}
		}
	}
}

func TestCollinearPredictorsHandled(t *testing.T) {
	// x1 = 2*x0: Enter must not blow up; prediction must still work.
	r := rand.New(rand.NewSource(10))
	n := 60
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a := r.Float64()
		x[i] = []float64{a, 2 * a}
		y[i] = 5 * a
	}
	m, err := Fit(x, y, nil, Options{Method: Enter})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0.5, 1.0}); math.Abs(got-2.5) > 1e-6 {
		t.Fatalf("collinear prediction = %v, want 2.5", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, nil, Options{}); err == nil {
		t.Fatal("empty: want error")
	}
	if _, err := Fit([][]float64{{}}, []float64{1}, nil, Options{}); err == nil {
		t.Fatal("no predictors: want error")
	}
	if _, err := Fit([][]float64{{1}, {2}}, []float64{1}, nil, Options{}); err == nil {
		t.Fatal("y mismatch: want error")
	}
	if _, err := Fit([][]float64{{1}, {2}}, []float64{1, 2}, nil, Options{}); err == nil {
		t.Fatal("n<3: want error")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}, {3, 4}}, []float64{1, 2, 3}, nil, Options{}); err == nil {
		t.Fatal("ragged: want error")
	}
	x, y := synth(11, 10, 0.1)
	if _, err := Fit(x, y, []string{"only-one"}, Options{}); err == nil {
		t.Fatal("names mismatch: want error")
	}
	if _, err := Fit(x, y, nil, Options{Method: Method(99)}); err == nil {
		t.Fatal("unknown method: want error")
	}
}

func TestMethodString(t *testing.T) {
	cases := map[Method]string{Enter: "LR-E", Stepwise: "LR-S", Backward: "LR-B", Forward: "LR-F"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%v.String() = %q", int(m), m.String())
		}
	}
	if len(Methods()) != 4 {
		t.Fatal("Methods() should list 4 methods")
	}
}

func TestBackwardBeatsEnterOnSparseTruth(t *testing.T) {
	// With many junk predictors and few observations, Backward should
	// generalize at least as well as Enter on held-out data — the
	// mechanism behind the paper's chronological results (§4.3).
	r := rand.New(rand.NewSource(12))
	gen := func(n int) ([][]float64, []float64) {
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = make([]float64, 12)
			for j := range x[i] {
				x[i][j] = r.Float64()
			}
			y[i] = 2 + 5*x[i][0] + 0.3*r.NormFloat64()
		}
		return x, y
	}
	xtr, ytr := gen(30)
	xte, yte := gen(500)
	me, err := Fit(xtr, ytr, nil, Options{Method: Enter})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Fit(xtr, ytr, nil, Options{Method: Backward})
	if err != nil {
		t.Fatal(err)
	}
	mse := func(m *Model) float64 {
		s := 0.0
		for i := range xte {
			d := m.Predict(xte[i]) - yte[i]
			s += d * d
		}
		return s / float64(len(xte))
	}
	if mse(mb) > mse(me)*1.1 {
		t.Fatalf("backward (%.4f) much worse than enter (%.4f) out of sample", mse(mb), mse(me))
	}
}
