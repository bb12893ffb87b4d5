package stat

import (
	"math"
	"testing"
)

// Property-based checks over seeded randomized inputs: the paper's error
// metric must obey its algebraic identities on every sample the framework
// could conceivably produce, not just on hand-picked vectors.

// apes returns the per-record absolute percentage errors.
func apes(yhat, y []float64) []float64 {
	out := make([]float64, len(y))
	for i := range y {
		out[i] = APE(yhat[i], y[i])
	}
	return out
}

// mape is the paper's error metric as Predictor.Evaluate computes it:
// the mean of the per-record absolute percentage errors.
func mape(yhat, y []float64) float64 { return Mean(apes(yhat, y)) }

// randVec draws n values in (lo, hi) from r, never exactly zero.
func randVec(r interface{ Float64() float64 }, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		v := lo + (hi-lo)*r.Float64()
		if v == 0 {
			v = hi / 2
		}
		out[i] = v
	}
	return out
}

func TestMAPEPropertiesRandomized(t *testing.T) {
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		r := NewRand(DeriveSeed(42, trial))
		n := 1 + r.Intn(64)
		y := randVec(r, n, 0.5, 1000)
		yhat := randVec(r, n, -1000, 1000)

		m := mape(yhat, y)
		// Non-negativity and finiteness.
		if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			t.Fatalf("trial %d: MAPE = %v, want finite non-negative", trial, m)
		}
		// Identity: a perfect prediction has zero error.
		if z := mape(y, y); z != 0 {
			t.Fatalf("trial %d: MAPE(y, y) = %v, want 0", trial, z)
		}
		// Scale invariance: MAPE is a relative metric, so scaling both
		// vectors by any positive constant must not change it.
		for _, c := range []float64{0.001, 3, 1e6} {
			cy := make([]float64, n)
			cyhat := make([]float64, n)
			for i := range y {
				cy[i] = c * y[i]
				cyhat[i] = c * yhat[i]
			}
			if sm := mape(cyhat, cy); relDiff(sm, m) > 1e-9 {
				t.Fatalf("trial %d: MAPE not scale invariant at c=%v: %v vs %v", trial, c, sm, m)
			}
		}
		// One non-negative error per record.
		for i, a := range apes(yhat, y) {
			if a < 0 {
				t.Fatalf("trial %d: APE[%d] = %v < 0", trial, i, a)
			}
		}
		// Triangle-ish bound: MAPE of a prediction shifted toward truth by
		// averaging can never exceed the original by more than rounding.
		mid := make([]float64, n)
		for i := range y {
			mid[i] = (yhat[i] + y[i]) / 2
		}
		hm := mape(mid, y)
		if hm > m/2+1e-9 {
			t.Fatalf("trial %d: halfway MAPE %v exceeds half of %v", trial, hm, m)
		}
	}
}

func TestDescriptiveIdentitiesRandomized(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		r := NewRand(DeriveSeed(44, trial))
		n := 1 + r.Intn(128)
		xs := randVec(r, n, -50, 50)
		// Variance is non-negative and consistent with StdDev².
		v := Variance(xs)
		if v < 0 {
			t.Fatalf("trial %d: variance %v < 0", trial, v)
		}
		if sd := StdDev(xs); relDiff(sd*sd, v) > 1e-9 && v > 1e-12 {
			t.Fatalf("trial %d: StdDev² %v != Variance %v", trial, sd*sd, v)
		}
		// Mean within [Min, Max].
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		if m := Mean(xs); m < mn-1e-9 || m > mx+1e-9 {
			t.Fatalf("trial %d: mean %v outside [%v, %v]", trial, m, mn, mx)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}
