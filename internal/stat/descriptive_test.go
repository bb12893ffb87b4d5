package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5, -1}); got != 3 {
		t.Fatalf("Sum = %v, want 3", got)
	}
}

func TestVariancePopulationVsSample(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := SampleVariance(xs); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Fatalf("SampleVariance = %v, want %v", got, 32.0/7.0)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if got := Variance(nil); got != 0 {
		t.Fatalf("Variance(nil) = %v", got)
	}
	if got := SampleVariance([]float64{3}); got != 0 {
		t.Fatalf("SampleVariance(single) = %v", got)
	}
}

func TestStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestMinMaxRange(t *testing.T) {
	xs := []float64{3, 1, 4, 1.5, 9}
	lo, err := Min(xs)
	if err != nil || lo != 1 {
		t.Fatalf("Min = %v, %v", lo, err)
	}
	hi, err := Max(xs)
	if err != nil || hi != 9 {
		t.Fatalf("Max = %v, %v", hi, err)
	}
	r, err := Range(xs)
	if err != nil || r != 9 {
		t.Fatalf("Range = %v, %v", r, err)
	}
}

func TestRangeErrors(t *testing.T) {
	if _, err := Range(nil); err == nil {
		t.Fatal("Range(nil): want error")
	}
	if _, err := Range([]float64{0, 1}); err == nil {
		t.Fatal("Range with zero min: want error")
	}
}

func TestNormalizedVarianceScaleFree(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	scaled := []float64{10, 20, 30, 40, 50}
	a := NormalizedVariance(xs)
	b := NormalizedVariance(scaled)
	if !almostEq(a, b, 1e-12) {
		t.Fatalf("NormalizedVariance not scale free: %v vs %v", a, b)
	}
}

func TestMAPE(t *testing.T) {
	got := mape([]float64{110, 90}, []float64{100, 100})
	if !almostEq(got, 10, 1e-12) {
		t.Fatalf("MAPE = %v, want 10", got)
	}
}

func TestAPE(t *testing.T) {
	yhat, y := []float64{110, 5, 80}, []float64{100, 0, 100}
	want := []float64{10, 0, 20}
	for i := range want {
		if got := APE(yhat[i], y[i]); !almostEq(got, want[i], 1e-12) {
			t.Fatalf("APE(%v, %v) = %v, want %v", yhat[i], y[i], got, want[i])
		}
	}
}

// Property: MAPE of a prediction scaled by (1+e) is |e|*100 for positive truth.
func TestMAPEScaleProperty(t *testing.T) {
	f := func(base uint8, e int8) bool {
		y := float64(base)/8 + 1 // in [1, ~33]
		scale := 1 + float64(e)/300
		got := mape([]float64{y * scale}, []float64{y})
		return almostEq(got, math.Abs(float64(e)/300)*100, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestVarianceProperties(t *testing.T) {
	f := func(a, b, c int8, shift int8) bool {
		xs := []float64{float64(a), float64(b), float64(c)}
		sh := float64(shift)
		shifted := []float64{xs[0] + sh, xs[1] + sh, xs[2] + sh}
		if !almostEq(Variance(xs), Variance(shifted), 1e-9) {
			return false
		}
		scaled := []float64{2 * xs[0], 2 * xs[1], 2 * xs[2]}
		return almostEq(4*Variance(xs), Variance(scaled), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
