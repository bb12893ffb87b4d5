// Package stat provides the statistical machinery the predictive-modeling
// framework is built on: descriptive statistics, special functions
// (log-gamma, regularized incomplete beta), the Normal, Student-t
// and F distributions used by the regression variable-selection tests, and
// deterministic random-stream derivation used to keep every experiment
// reproducible regardless of parallelism.
package stat

import (
	"errors"
	"math"
)

// ErrEmpty is returned by descriptive statistics that are undefined on an
// empty sample.
var ErrEmpty = errors.New("stat: empty sample")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Variance returns the population variance of xs (divide by n). The paper
// reports population variances for its workload ranges, so that convention
// is used throughout the calibration code.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance of xs (divide by n-1).
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// SampleStdDev returns the sample standard deviation of xs.
func SampleStdDev(xs []float64) float64 { return math.Sqrt(SampleVariance(xs)) }

// Min returns the minimum of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Range returns max/min, the paper's definition of the spread of a set of
// performance numbers ("the best system has 1.40 times better performance
// than the worst system"). All elements must be positive.
func Range(xs []float64) (float64, error) {
	lo, err := Min(xs)
	if err != nil {
		return 0, err
	}
	hi, _ := Max(xs)
	if lo <= 0 {
		return 0, errors.New("stat: range of non-positive values")
	}
	return hi / lo, nil
}

// NormalizedVariance returns the population variance of xs after dividing
// every element by the sample mean. The paper reports this scale-free
// variance alongside the range for both the simulation outcomes and the
// SPEC families.
func NormalizedVariance(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	norm := make([]float64, len(xs))
	for i, x := range xs {
		norm[i] = x / m
	}
	return Variance(norm)
}

// APEs returns the individual absolute percentage errors 100*|yhat-y|/y.
// Pairs with y == 0 produce a NaN-free 0 contribution and are reported as 0.
func APEs(yhat, y []float64) []float64 {
	out := make([]float64, len(y))
	for i := range y {
		if y[i] == 0 {
			out[i] = 0
			continue
		}
		out[i] = 100 * math.Abs(yhat[i]-y[i]) / math.Abs(y[i])
	}
	return out
}
