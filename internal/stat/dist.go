package stat

import (
	"errors"
	"math"
)

// NormalCDF returns the CDF of the normal distribution with mean mu and
// standard deviation sigma evaluated at x.
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		if x < mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// StdNormalCDF returns the standard normal CDF at x.
func StdNormalCDF(x float64) float64 { return NormalCDF(x, 0, 1) }

// StudentTCDF returns the CDF of Student's t distribution with df degrees
// of freedom evaluated at t.
func StudentTCDF(t, df float64) (float64, error) {
	if df <= 0 {
		return 0, errors.New("stat: StudentTCDF requires df > 0")
	}
	x := df / (df + t*t)
	ib, err := RegIncBeta(df/2, 0.5, x)
	if err != nil {
		return 0, err
	}
	if t >= 0 {
		return 1 - 0.5*ib, nil
	}
	return 0.5 * ib, nil
}

// FCDF returns the CDF of the F distribution with (d1, d2) degrees of
// freedom evaluated at f. The partial F tests driving stepwise, forward and
// backward regression selection are built on this.
func FCDF(f, d1, d2 float64) (float64, error) {
	if d1 <= 0 || d2 <= 0 {
		return 0, errors.New("stat: FCDF requires positive degrees of freedom")
	}
	if f <= 0 {
		return 0, nil
	}
	x := d1 * f / (d1*f + d2)
	return RegIncBeta(d1/2, d2/2, x)
}

// FSurvival returns the upper-tail probability P(F > f) for the F
// distribution with (d1, d2) degrees of freedom — the p-value of a partial
// F test with statistic f.
func FSurvival(f, d1, d2 float64) (float64, error) {
	c, err := FCDF(f, d1, d2)
	if err != nil {
		return 0, err
	}
	return 1 - c, nil
}

// TTestPValue returns the two-sided p-value for a t statistic with df
// degrees of freedom. Regression coefficient significance uses this.
func TTestPValue(t, df float64) (float64, error) {
	c, err := StudentTCDF(math.Abs(t), df)
	if err != nil {
		return 0, err
	}
	return 2 * (1 - c), nil
}
