// Package linreg implements the paper's four linear-regression models
// (§3.1): multiple linear regression fitted by least squares, with the four
// SPSS Clementine variable-selection methods — Enter (LR-E, all
// predictors), Forwards (LR-F), Backwards (LR-B) and Stepwise (LR-S) —
// driven by partial F tests. Standardized beta coefficients quantify
// predictor importance as reported in the paper's §4.4.
package linreg

import "math"

// lsqResult holds the output of one least-squares solve.
type lsqResult struct {
	beta []float64 // coefficient per design-matrix column (incl. intercept)
	rss  float64   // residual sum of squares
	rank int       // numerical rank of the design matrix
	// invDiag is diag((XᵀX)⁻¹) for full-rank columns (NaN for dropped
	// columns); used for coefficient standard errors.
	invDiag []float64
	// inv is the full (XᵀX)⁻¹ when the design matrix has full column rank
	// (nil otherwise); used for prediction-interval leverage terms.
	inv [][]float64
}

// lsq is one Fit's least-squares workspace: every candidate subset the
// selection methods test, and the final fit, is factored in it, so a fit
// allocates its design storage once rather than per candidate. The design
// is column-major and flat; column pivoting permutes perm instead of
// moving columns, so logical column k of the factorization lives at
// physical column perm[k].
type lsq struct {
	n    int
	a    []float64 // n×cols design, physical column c at a[c*n:(c+1)*n]
	b    []float64 // the target, reflected alongside the design
	v    []float64 // one Householder vector
	perm []int
	// m and rank describe the last factorization.
	m, rank int
}

func newLSQ(n, cols int) *lsq {
	return &lsq{
		n:    n,
		a:    make([]float64, n*cols),
		b:    make([]float64, n),
		v:    make([]float64, n),
		perm: make([]int, cols),
	}
}

// col returns logical column k of the current factorization.
func (w *lsq) col(k int) []float64 {
	c := w.perm[k] * w.n
	return w.a[c : c+w.n]
}

// load fills the design [1 | x[:,subset]] and returns its width.
func (w *lsq) load(x [][]float64, subset []int) int {
	n := w.n
	ones := w.a[:n]
	for i := range ones {
		ones[i] = 1
	}
	for sj, j := range subset {
		c := w.a[(sj+1)*n : (sj+2)*n]
		for i, row := range x {
			c[i] = row[j]
		}
	}
	return 1 + len(subset)
}

// factor reduces the loaded n×m design by Householder QR with column
// pivoting, reflecting y alongside it, and returns the residual sum of
// squares of min ‖Xb − y‖². Columns whose remaining norm falls below the
// rank tolerance are left unfactored; solve gives them zero coefficients.
// y is not modified.
func (w *lsq) factor(m int, y []float64) float64 {
	n := w.n
	w.m, w.rank = m, 0
	b := w.b
	copy(b, y)
	perm := w.perm[:m]
	for j := range perm {
		perm[j] = j
	}
	maxNorm := 0.0
	for j := 0; j < m; j++ {
		s := 0.0
		for _, v := range w.col(j) {
			s += v * v
		}
		if s > maxNorm {
			maxNorm = s
		}
	}
	tol := math.Sqrt(maxNorm) * 1e-10
	if tol == 0 {
		tol = 1e-12
	}

	steps := m
	if n < m {
		steps = n
	}
	for k := 0; k < steps; k++ {
		// Column pivot: bring the column with the largest remaining norm to k.
		best, bestNorm := k, 0.0
		for j := k; j < m; j++ {
			s := 0.0
			for _, v := range w.col(j)[k:] {
				s += v * v
			}
			if s > bestNorm {
				best, bestNorm = j, s
			}
		}
		if math.Sqrt(bestNorm) <= tol {
			break
		}
		perm[k], perm[best] = perm[best], perm[k]
		ak := w.col(k)
		// Householder vector v for column k (rows k..n-1).
		alpha := math.Sqrt(bestNorm)
		if ak[k] > 0 {
			alpha = -alpha
		}
		v := w.v[:n-k]
		v[0] = ak[k] - alpha
		copy(v[1:], ak[k+1:])
		vnorm2 := 0.0
		for _, vi := range v {
			vnorm2 += vi * vi
		}
		if vnorm2 == 0 {
			break
		}
		ak[k] = alpha
		clear(ak[k+1:])
		// Apply the reflector to the remaining columns and to b.
		for j := k + 1; j < m; j++ {
			reflect(v, w.col(j)[k:], vnorm2)
		}
		reflect(v, b[k:], vnorm2)
		w.rank++
	}

	rss := 0.0
	for _, bi := range b[w.rank:] {
		rss += bi * bi
	}
	return rss
}

// reflect applies the Householder reflector I − 2vvᵀ/‖v‖² to c in place.
func reflect(v, c []float64, vnorm2 float64) {
	dot := 0.0
	for i, vi := range v {
		dot += vi * c[i]
	}
	f := 2 * dot / vnorm2
	for i, vi := range v {
		c[i] -= f * vi
	}
}

// solve back-substitutes the last factorization for the coefficients and
// forms diag((XᵀX)⁻¹) and, at full rank, (XᵀX)⁻¹ itself. Only a model's
// final fit needs them; the selection methods compare candidates by the
// RSS factor returns.
func (w *lsq) solve(rss float64) *lsqResult {
	m, rank, b := w.m, w.rank, w.b
	// Back substitution on the rank×rank upper-triangular system.
	bt := make([]float64, rank)
	for i := rank - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < rank; j++ {
			s -= w.col(j)[i] * bt[j]
		}
		bt[i] = s / w.col(i)[i]
	}
	beta := make([]float64, m)
	for j := 0; j < rank; j++ {
		beta[w.perm[j]] = bt[j]
	}

	// diag((XᵀX)⁻¹) = row norms² of R⁻¹ for the selected columns.
	invDiag := make([]float64, m)
	for j := range invDiag {
		invDiag[j] = math.NaN()
	}
	var inv [][]float64
	if rank > 0 {
		rInv := w.invertUpper()
		for i := 0; i < rank; i++ {
			s := 0.0
			for j := i; j < rank; j++ {
				s += rInv[i][j] * rInv[i][j]
			}
			invDiag[w.perm[i]] = s
		}
		if rank == m {
			// Full (XᵀX)⁻¹ = R⁻¹ R⁻ᵀ, un-permuted.
			inv = make([][]float64, m)
			for i := range inv {
				inv[i] = make([]float64, m)
			}
			for i := 0; i < rank; i++ {
				for j := 0; j < rank; j++ {
					s := 0.0
					k := i
					if j > i {
						k = j
					}
					for ; k < rank; k++ {
						s += rInv[i][k] * rInv[j][k]
					}
					inv[w.perm[i]][w.perm[j]] = s
				}
			}
		}
	}
	return &lsqResult{beta: beta, rss: rss, rank: rank, invDiag: invDiag, inv: inv}
}

// invertUpper inverts the leading rank×rank upper-triangular block R of
// the last factorization. Returns row-major R⁻¹.
func (w *lsq) invertUpper() [][]float64 {
	rank := w.rank
	inv := make([][]float64, rank)
	for i := range inv {
		inv[i] = make([]float64, rank)
	}
	for j := rank - 1; j >= 0; j-- {
		inv[j][j] = 1 / w.col(j)[j]
		for i := j - 1; i >= 0; i-- {
			s := 0.0
			for k := i + 1; k <= j; k++ {
				s += w.col(k)[i] * inv[k][j]
			}
			inv[i][j] = -s / w.col(i)[i]
		}
	}
	return inv
}
