package stat

import (
	"errors"
	"math"
)

// lanczos coefficients (g=7, n=9) for the log-gamma approximation.
var lanczos = [...]float64{
	0.99999999999980993,
	676.5203681218851,
	-1259.1392167224028,
	771.32342877765313,
	-176.61502916214059,
	12.507343278686905,
	-0.13857109526572012,
	9.9843695780195716e-6,
	1.5056327351493116e-7,
}

// LnGamma returns the natural logarithm of the Gamma function for x > 0
// using the Lanczos approximation. It agrees with math.Lgamma to ~1e-13 and
// exists so the special-function stack is self-contained and testable
// against the stdlib.
func LnGamma(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	if x < 0.5 {
		// Reflection formula keeps the approximation accurate near zero.
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - LnGamma(1-x)
	}
	x--
	a := lanczos[0]
	t := x + 7.5
	for i := 1; i < len(lanczos); i++ {
		a += lanczos[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b),
// the CDF kernel shared by the Student-t and F distributions. It uses the
// continued-fraction expansion (Numerical Recipes betacf) with the standard
// symmetry switch for fast convergence.
func RegIncBeta(a, b, x float64) (float64, error) {
	if a <= 0 || b <= 0 {
		return 0, errors.New("stat: RegIncBeta requires a, b > 0")
	}
	if x < 0 || x > 1 {
		return 0, errors.New("stat: RegIncBeta requires x in [0,1]")
	}
	if x == 0 {
		return 0, nil
	}
	if x == 1 {
		return 1, nil
	}
	lbeta := LnGamma(a+b) - LnGamma(a) - LnGamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		cf, err := betaCF(a, b, x)
		if err != nil {
			return 0, err
		}
		return front * cf / a, nil
	}
	cf, err := betaCF(b, a, 1-x)
	if err != nil {
		return 0, err
	}
	return 1 - front*cf/b, nil
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) (float64, error) {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h, nil
		}
	}
	return 0, errors.New("stat: incomplete beta continued fraction did not converge")
}
