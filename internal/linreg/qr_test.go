package linreg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// solveLS factors and solves a row-major design (its intercept column, if
// any, supplied by the caller) on a fresh workspace.
func solveLS(x [][]float64, y []float64) *lsqResult {
	n, m := len(x), len(x[0])
	w := newLSQ(n, m)
	for j := 0; j < m; j++ {
		for i, row := range x {
			w.a[j*n+i] = row[j]
		}
	}
	return w.solve(w.factor(m, y))
}

func TestSolveLSExact(t *testing.T) {
	// y = 2 + 3a - b, exactly determined.
	x := [][]float64{
		{1, 0, 0},
		{1, 1, 0},
		{1, 0, 1},
		{1, 2, 3},
	}
	y := []float64{2, 5, 1, 5}
	res := solveLS(x, y)
	want := []float64{2, 3, -1}
	for j := range want {
		if math.Abs(res.beta[j]-want[j]) > 1e-9 {
			t.Fatalf("beta = %v, want %v", res.beta, want)
		}
	}
	if res.rss > 1e-18 {
		t.Fatalf("rss = %v, want ~0", res.rss)
	}
	if res.rank != 3 {
		t.Fatalf("rank = %d", res.rank)
	}
}

func TestSolveLSOverdetermined(t *testing.T) {
	// Simple regression with known closed form.
	x := [][]float64{{1, 1}, {1, 2}, {1, 3}, {1, 4}}
	y := []float64{6, 5, 7, 10}
	res := solveLS(x, y)
	// Closed form: slope = 1.4, intercept = 3.5 (classic textbook data).
	if math.Abs(res.beta[0]-3.5) > 1e-9 || math.Abs(res.beta[1]-1.4) > 1e-9 {
		t.Fatalf("beta = %v", res.beta)
	}
	// RSS = Σ(y - ŷ)².
	wantRSS := 0.0
	for i := range y {
		d := y[i] - (3.5 + 1.4*float64(i+1))
		wantRSS += d * d
	}
	if math.Abs(res.rss-wantRSS) > 1e-9 {
		t.Fatalf("rss = %v, want %v", res.rss, wantRSS)
	}
}

func TestSolveLSRankDeficient(t *testing.T) {
	// Third column is the sum of the first two: rank 2.
	x := [][]float64{
		{1, 1, 2},
		{1, 2, 3},
		{1, 3, 4},
		{1, 4, 5},
	}
	y := []float64{1, 2, 3, 4}
	res := solveLS(x, y)
	if res.rank != 2 {
		t.Fatalf("rank = %d, want 2", res.rank)
	}
	// The fit must still reproduce y (it lies in the column space).
	for i := range x {
		yhat := 0.0
		for j := range res.beta {
			yhat += res.beta[j] * x[i][j]
		}
		if math.Abs(yhat-y[i]) > 1e-9 {
			t.Fatalf("row %d: yhat %v want %v", i, yhat, y[i])
		}
	}
}

func TestSolveLSInvDiag(t *testing.T) {
	// For the simple model above, (XᵀX)⁻¹ has a known closed form:
	// with x = 1..4: Sxx = 5, diag = [ (1/n + x̄²/Sxx), 1/Sxx ].
	x := [][]float64{{1, 1}, {1, 2}, {1, 3}, {1, 4}}
	y := []float64{6, 5, 7, 10}
	res := solveLS(x, y)
	wantSlope := 1.0 / 5.0
	wantIcept := 0.25 + 2.5*2.5/5.0
	if math.Abs(res.invDiag[1]-wantSlope) > 1e-9 {
		t.Fatalf("invDiag slope = %v, want %v", res.invDiag[1], wantSlope)
	}
	if math.Abs(res.invDiag[0]-wantIcept) > 1e-9 {
		t.Fatalf("invDiag intercept = %v, want %v", res.invDiag[0], wantIcept)
	}
}

// Property: residual is orthogonal to every design column (normal equations).
func TestSolveLSNormalEquationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 20, 4
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = make([]float64, m)
			x[i][0] = 1
			for j := 1; j < m; j++ {
				x[i][j] = r.NormFloat64()
			}
			y[i] = r.NormFloat64() * 3
		}
		res := solveLS(x, y)
		for j := 0; j < m; j++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				yhat := 0.0
				for k := 0; k < m; k++ {
					yhat += res.beta[k] * x[i][k]
				}
				dot += x[i][j] * (y[i] - yhat)
			}
			if math.Abs(dot) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInvertUpperIdentityCheck(t *testing.T) {
	// Factor a random full-rank matrix, then check R · R⁻¹ = I on the
	// triangular block produced by solveLS.
	r := rand.New(rand.NewSource(11))
	n, m := 8, 4
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, m)
		for j := range x[i] {
			x[i][j] = r.NormFloat64()
		}
		y[i] = r.NormFloat64()
	}
	res := solveLS(x, y)
	if res.rank != m {
		t.Fatalf("rank = %d", res.rank)
	}
	// invDiag must be positive and finite for a full-rank system.
	for j, v := range res.invDiag {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("invDiag[%d] = %v", j, v)
		}
	}
}
