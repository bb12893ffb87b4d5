package linreg

import (
	"fmt"
	"math"
	"testing"

	"perfpred/internal/stat"
)

// Property-based checks on seeded randomized regression problems: the
// normal-equation identities OLS must satisfy by construction, and the
// structural invariants of the Clementine selection methods.

// randProblem draws an n×p design with known coefficients and Gaussian
// noise. Column scales vary over three orders of magnitude to exercise
// the QR path's conditioning.
func randProblem(seed int64, n, p int) (x [][]float64, y []float64, names []string) {
	r := stat.NewRand(seed)
	scales := make([]float64, p)
	beta := make([]float64, p)
	for j := range scales {
		scales[j] = math.Pow(10, float64(r.Intn(4))-1)
		beta[j] = r.NormFloat64() * 3
	}
	x = make([][]float64, n)
	y = make([]float64, n)
	names = make([]string, p)
	for j := range names {
		names[j] = fmt.Sprintf("x%d", j)
	}
	for i := range x {
		x[i] = make([]float64, p)
		yi := 2.5 // intercept
		for j := range x[i] {
			x[i][j] = r.NormFloat64() * scales[j]
			yi += beta[j] * x[i][j]
		}
		y[i] = yi + r.NormFloat64()*0.5
	}
	return x, y, names
}

// TestOLSResidualOrthogonality pins the defining property of least
// squares: residuals are orthogonal to every design column and to the
// intercept (they sum to zero). Any drift here means the QR solve or the
// prediction path changed numerically.
func TestOLSResidualOrthogonality(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		seed := stat.DeriveSeed(7, trial)
		r := stat.NewRand(seed)
		n := 20 + r.Intn(80)
		p := 1 + r.Intn(6)
		x, y, names := randProblem(stat.DeriveSeed(seed, 1), n, p)
		m, err := Fit(x, y, names, Options{Method: Enter})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		resid := make([]float64, n)
		var residNorm float64
		for i := range x {
			resid[i] = y[i] - m.Predict(x[i])
			residNorm += resid[i] * resid[i]
		}
		scale := math.Sqrt(residNorm)*math.Sqrt(float64(n)) + 1
		// Σ rᵢ ≈ 0 (intercept column).
		if s := stat.Sum(resid); math.Abs(s) > 1e-7*scale {
			t.Errorf("trial %d (n=%d p=%d): residual sum %v not ~0 (scale %v)", trial, n, p, s, scale)
		}
		// Σ rᵢ·xᵢⱼ ≈ 0 for every column.
		for j := 0; j < p; j++ {
			var dot, colNorm float64
			for i := range x {
				dot += resid[i] * x[i][j]
				colNorm += x[i][j] * x[i][j]
			}
			tol := 1e-7 * (math.Sqrt(colNorm)*math.Sqrt(residNorm) + 1)
			if math.Abs(dot) > tol {
				t.Errorf("trial %d: residuals not orthogonal to column %d: dot %v (tol %v)", trial, j, dot, tol)
			}
		}
		// R² of a full fit lies in [0, 1] and RSS is non-negative.
		if v := r2(m); v < -1e-9 || v > 1+1e-9 {
			t.Errorf("trial %d: R² = %v", trial, v)
		}
		if m.rss < 0 {
			t.Errorf("trial %d: RSS = %v", trial, m.rss)
		}
	}
}

// TestSelectionSubsetInvariants checks every selection method on
// randomized problems: the selected predictors are always a duplicate-free
// subset of the candidate set, Enter keeps everything, and the fitted
// model predicts finite values on its own training rows.
func TestSelectionSubsetInvariants(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		seed := stat.DeriveSeed(11, trial)
		r := stat.NewRand(seed)
		n := 24 + r.Intn(60)
		p := 2 + r.Intn(6)
		x, y, names := randProblem(stat.DeriveSeed(seed, 1), n, p)
		candidates := make(map[string]bool, len(names))
		for _, nm := range names {
			candidates[nm] = true
		}
		for _, method := range Methods() {
			m, err := Fit(x, y, names, Options{Method: method})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, method, err)
			}
			sel := selectedNames(m)
			seen := make(map[string]bool, len(sel))
			for _, nm := range sel {
				if !candidates[nm] {
					t.Errorf("trial %d %v: selected %q not in candidate set %v", trial, method, nm, names)
				}
				if seen[nm] {
					t.Errorf("trial %d %v: predictor %q selected twice", trial, method, nm)
				}
				seen[nm] = true
			}
			if len(m.selected) > p {
				t.Errorf("trial %d %v: selected %d of %d predictors", trial, method, len(m.selected), p)
			}
			if method == Enter && len(m.selected) != p {
				t.Errorf("trial %d: Enter selected %d of %d predictors", trial, len(m.selected), p)
			}
			for i := range x {
				if yh := m.Predict(x[i]); math.IsNaN(yh) || math.IsInf(yh, 0) {
					t.Fatalf("trial %d %v: non-finite prediction on row %d", trial, method, i)
				}
			}
		}
	}
}

// TestStepwiseNeverBeatsEnterOnRSS: adding predictors can only lower the
// residual sum of squares, so the full Enter fit's RSS is a lower bound
// for every selected submodel on the same data.
func TestStepwiseNeverBeatsEnterOnRSS(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		seed := stat.DeriveSeed(13, trial)
		r := stat.NewRand(seed)
		n := 30 + r.Intn(50)
		p := 2 + r.Intn(5)
		x, y, names := randProblem(stat.DeriveSeed(seed, 1), n, p)
		full, err := Fit(x, y, names, Options{Method: Enter})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, method := range []Method{Forward, Backward, Stepwise} {
			m, err := Fit(x, y, names, Options{Method: method})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, method, err)
			}
			if m.rss < full.rss-1e-6*(full.rss+1) {
				t.Errorf("trial %d %v: submodel RSS %v below full-model RSS %v", trial, method, m.rss, full.rss)
			}
		}
	}
}
